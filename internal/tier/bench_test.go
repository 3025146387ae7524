package tier

import (
	"testing"

	"gospaces/internal/pfs"
)

// BenchmarkSpillPromote cycles one version of 32 logged 16 KiB
// objects through the full cold-tier round trip — twin-generation CRC'd
// records, one group manifest commit, promote, reclaim — the unit of
// work a spilling put or a replay read of a spilled version pays.
func BenchmarkSpillPromote(b *testing.B) {
	tr := New(pfs.NewStore(), "0")
	objs := versionObjs("sim/f", 1, 32, 16<<10)
	b.SetBytes(int64(len(objs)) * 16 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range objs {
			o.Version = int64(i + 1)
		}
		if err := tr.Spill(objs...); err != nil {
			b.Fatal(err)
		}
		if got, err := tr.Promote("sim/f", int64(i+1)); err != nil || len(got) != len(objs) {
			b.Fatalf("promote: %v, %d objects", err, len(got))
		}
	}
}

// BenchmarkScrub measures the CRC verification pass over a populated
// tier, per spilled entry.
func BenchmarkScrub(b *testing.B) {
	tr := New(pfs.NewStore(), "0")
	const entries = 64
	for v := int64(1); v <= entries; v++ {
		if err := tr.Spill(obj("sim/f", v, 4<<10)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := tr.Scrub()
		if rep.Lost != 0 || rep.Checked == 0 {
			b.Fatalf("scrub report %+v", rep)
		}
	}
}
