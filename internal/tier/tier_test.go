package tier

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"gospaces/internal/ckpt"
	"gospaces/internal/domain"
	"gospaces/internal/pfs"
	"gospaces/internal/store"
)

func obj(name string, version int64, n int) *store.Object {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(int64(i)*7 + version)
	}
	return &store.Object{
		Name:     name,
		Version:  version,
		BBox:     domain.Box3(0, 0, 0, 3, 3, 0),
		ElemSize: 1,
		Data:     data,
		CRC:      crc32.Checksum(data, crcTable),
		Logged:   true,
	}
}

// versionObjs returns the n pieces of one version, side by side on x.
func versionObjs(name string, version int64, n, size int) []*store.Object {
	objs := make([]*store.Object, n)
	for i := range objs {
		objs[i] = obj(name, version, size)
		objs[i].BBox = domain.Box3(int64(4*i), 0, 0, int64(4*i+3), 3, 0)
	}
	return objs
}

func TestSpillPromoteRoundTrip(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	in := obj("sim/f", 3, 64)
	if err := tr.Spill(in); err != nil {
		t.Fatal(err)
	}
	if !tr.Has("sim/f", 3) || tr.Has("sim/f", 4) {
		t.Fatal("index wrong after spill")
	}
	objs, err := tr.Promote("sim/f", 3)
	if err != nil || len(objs) != 1 {
		t.Fatalf("promote: %v objs=%d", err, len(objs))
	}
	if !bytes.Equal(objs[0].Data, in.Data) || objs[0].CRC != in.CRC || !objs[0].Logged {
		t.Fatal("promoted object differs")
	}
	if tr.Has("sim/f", 3) {
		t.Fatal("entry survives promote")
	}
	st := tr.Stats()
	if st.Spills != 1 || st.Promotes != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Records are reclaimed.
	if names := be.List("tier/0/o/"); len(names) != 0 {
		t.Fatalf("leftover records: %v", names)
	}
}

func TestReattachRecoversManifest(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	if err := tr.Spill(obj("sim/f", 1, 32)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Spill(obj("sim/f", 2, 32)); err != nil {
		t.Fatal(err)
	}
	// A fresh attach (crash + restart) sees both entries.
	tr2 := New(be, "0")
	if !tr2.Has("sim/f", 1) || !tr2.Has("sim/f", 2) {
		t.Fatalf("reattach lost entries: versions=%v", tr2.Versions("sim/f"))
	}
	objs, err := tr2.Promote("sim/f", 2)
	if err != nil || len(objs) != 1 || !bytes.Equal(objs[0].Data, obj("sim/f", 2, 32).Data) {
		t.Fatalf("promote after reattach: %v %d", err, len(objs))
	}
}

// A crash between the record writes and the manifest commit must leave
// the version fully resident from the tier's point of view: the new
// attach sees no entry and collects the orphaned records.
func TestCrashMidSpillLeavesNoHalfMove(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	if err := tr.Spill(obj("sim/f", 1, 32)); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: write orphan records directly, no manifest.
	be.Write("tier/0/o/99/g0", []byte("orphan"))
	be.Write("tier/0/o/99/g1", []byte("orphan"))
	be.Write("tier/0/manifest.tmp", []byte("torn temp"))
	tr2 := New(be, "0")
	if tr2.Stats().Entries != 1 {
		t.Fatalf("entries = %d", tr2.Stats().Entries)
	}
	if _, ok := be.Read("tier/0/o/99/g0"); ok {
		t.Fatal("orphan record not collected")
	}
	if _, ok := be.Read("tier/0/manifest.tmp"); ok {
		t.Fatal("manifest temp not collected")
	}
}

// A torn manifest write is healed by the commit-marker protocol: the
// previous committed manifest generation still decodes.
func TestTornManifestFallsBack(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	if err := tr.Spill(obj("sim/f", 1, 32)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the NEXT manifest temp write mid-flight; the rename then
	// installs a torn generation, but the marker flip still points at
	// it... so tear the committed generation instead, post-hoc, and
	// verify attach falls back to the surviving one.
	if err := tr.Spill(obj("sim/f", 2, 32)); err != nil {
		t.Fatal(err)
	}
	cur, _ := be.Read("tier/0/manifest/cur")
	be.Corrupt("tier/0/manifest/g"+string(rune('0'+cur[0])), 9)
	tr2 := New(be, "0")
	// The surviving generation holds the state as of the first spill.
	if !tr2.Has("sim/f", 1) {
		t.Fatal("fallback manifest lost the first spill")
	}
}

func TestScrubHealsBitRot(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	if err := tr.Spill(obj("sim/f", 1, 128)); err != nil {
		t.Fatal(err)
	}
	if !be.Corrupt("tier/0/o/0/g0", 40) {
		t.Fatal("no record to corrupt")
	}
	rep := tr.Scrub()
	if rep.Checked != 2 || rep.Healed != 1 || rep.Lost != 0 {
		t.Fatalf("scrub = %+v", rep)
	}
	// Healed generation verifies again.
	rep = tr.Scrub()
	if rep.Healed != 0 || rep.Lost != 0 {
		t.Fatalf("second scrub = %+v", rep)
	}
	objs, err := tr.Promote("sim/f", 1)
	if err != nil || len(objs) != 1 || !bytes.Equal(objs[0].Data, obj("sim/f", 1, 128).Data) {
		t.Fatalf("promote after heal: %v %d", err, len(objs))
	}
}

func TestScrubDetectsDoubleCorruption(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	if err := tr.Spill(obj("sim/f", 1, 128)); err != nil {
		t.Fatal(err)
	}
	be.Corrupt("tier/0/o/0/g0", 40)
	be.Corrupt("tier/0/o/0/g1", 40)
	rep := tr.Scrub()
	if rep.Lost != 1 {
		t.Fatalf("scrub = %+v", rep)
	}
	if tr.Has("sim/f", 1) {
		t.Fatal("lost entry still indexed")
	}
	// Never serve corrupt data as valid.
	objs, err := tr.Promote("sim/f", 1)
	if err != nil || len(objs) != 0 {
		t.Fatalf("promote of lost entry: %v %d", err, len(objs))
	}
}

func TestPromoteSkipsCorruptReturnsRest(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	a := obj("sim/f", 1, 64)
	b := obj("sim/f", 1, 64)
	b.BBox = domain.Box3(4, 0, 0, 7, 3, 0)
	if err := tr.Spill(a); err != nil {
		t.Fatal(err)
	}
	if err := tr.Spill(b); err != nil {
		t.Fatal(err)
	}
	// Destroy both generations of the first record.
	be.Corrupt("tier/0/o/0/g0", 40)
	be.Corrupt("tier/0/o/0/g1", 40)
	objs, err := tr.Promote("sim/f", 1)
	if err != nil || len(objs) != 1 {
		t.Fatalf("promote: %v %d", err, len(objs))
	}
	if !objs[0].BBox.Equal(b.BBox) {
		t.Fatal("wrong survivor returned")
	}
	if tr.Stats().ScrubLost != 1 {
		t.Fatalf("stats = %+v", tr.Stats())
	}
}

func TestENOSPCDegradesAndScrubRearms(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	be.FailNextWrite(pfs.FaultENOSPC)
	err := tr.Spill(obj("sim/f", 1, 32))
	var de *DegradedError
	if !errors.As(err, &de) || !errors.Is(err, pfs.ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
	if !tr.Degraded() {
		t.Fatal("tier not degraded")
	}
	// While degraded, spills fail fast with the typed error.
	if err := tr.Spill(obj("sim/f", 2, 32)); !errors.As(err, &de) {
		t.Fatalf("degraded spill err = %v", err)
	}
	// Scrub probes the (now healthy) backend and re-arms.
	tr.Scrub()
	if tr.Degraded() {
		t.Fatal("scrub did not re-arm")
	}
	if err := tr.Spill(obj("sim/f", 3, 32)); err != nil {
		t.Fatalf("spill after re-arm: %v", err)
	}
}

func TestDropBelowReclaims(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	for v := int64(1); v <= 4; v++ {
		if err := tr.Spill(obj("sim/f", v, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if freed := tr.DropBelow("sim/f", 3); freed != 64 {
		t.Fatalf("freed = %d", freed)
	}
	if got := tr.Versions("sim/f"); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("versions = %v", got)
	}
	// Reattach agrees.
	if got := New(be, "0").Versions("sim/f"); len(got) != 2 || got[0] != 3 {
		t.Fatalf("reattached versions = %v", got)
	}
}

func TestReset(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	if err := tr.Spill(obj("sim/f", 1, 32)); err != nil {
		t.Fatal(err)
	}
	tr.Reset()
	if tr.Stats().Entries != 0 || len(be.List("tier/0/")) != 0 {
		t.Fatalf("reset left state: %+v %v", tr.Stats(), be.List("tier/0/"))
	}
	if err := tr.Spill(obj("sim/f", 5, 32)); err != nil {
		t.Fatalf("spill after reset: %v", err)
	}
}

// A manifest that passes its CRC but is not in this package's format —
// a foreign body, or a tier written by an older encoding — must not be
// read as "no manifest": attach degrades with ErrManifestFormat and
// keeps every record instead of collecting them as orphans.
func TestUndecodableManifestKeepsRecords(t *testing.T) {
	be := pfs.NewStore()
	if err := New(be, "0").Spill(obj("sim/f", 1, 32)); err != nil {
		t.Fatal(err)
	}
	be.Delete("tier/0/manifest/g1")
	be.Write("tier/0/manifest/g0", ckpt.SealRecord(1, []byte("\x0e\xff\x81foreign manifest body")))
	be.Write("tier/0/manifest/cur", []byte{0})
	records := be.List("tier/0/o/")
	if len(records) != 2 {
		t.Fatalf("records before attach: %v", records)
	}
	tr := New(be, "0")
	if !tr.Degraded() || tr.Stats().Entries != 0 {
		t.Fatalf("attach over a foreign manifest: %+v", tr.Stats())
	}
	if got := be.List("tier/0/o/"); len(got) != len(records) {
		t.Fatalf("attach collected records it could not account for: %v", got)
	}
	err := tr.Spill(obj("sim/f", 2, 32))
	var de *DegradedError
	if !errors.As(err, &de) || !errors.Is(err, ErrManifestFormat) {
		t.Fatalf("spill over a foreign manifest: %v", err)
	}
	// Scrub does not re-arm it: the next commit would orphan the records.
	tr.Scrub()
	if !tr.Degraded() || len(be.List("tier/0/o/")) != len(records) {
		t.Fatal("scrub re-armed a tier whose manifest it cannot read")
	}
}

// crashBackend fails the failAt-th Write (0 = never). With crash set,
// every later mutation is dropped too, even the rollback's deletes: the
// server died partway through the spill.
type crashBackend struct {
	*pfs.Store
	writes, failAt int
	crash          bool
}

var errInjected = errors.New("injected backend fault")

func (c *crashBackend) dead() bool { return c.crash && c.failAt > 0 && c.writes >= c.failAt }

func (c *crashBackend) Write(name string, data []byte) error {
	c.writes++
	if c.writes == c.failAt || c.dead() {
		return errInjected
	}
	return c.Store.Write(name, data)
}

func (c *crashBackend) Rename(old, new string) error {
	if c.dead() {
		return errInjected
	}
	return c.Store.Rename(old, new)
}

func (c *crashBackend) Delete(name string) {
	if !c.dead() {
		c.Store.Delete(name)
	}
}

// A fault at any write of a multi-object spill commits nothing of the
// batch: every entry is unindexed, a transient fault leaves no record
// behind, and after a crash the next attach collects the orphans. The
// previously committed version is untouched either way.
func TestSpillBatchAtomic(t *testing.T) {
	const batch = 3
	writes := 2*batch + 2 // twin records per object, manifest temp, marker
	for _, crash := range []bool{false, true} {
		for k := 1; k <= writes; k++ {
			be := &crashBackend{Store: pfs.NewStore(), crash: crash}
			tr := New(be, "0")
			if err := tr.Spill(obj("sim/f", 1, 64)); err != nil {
				t.Fatal(err)
			}
			be.failAt = be.writes + k
			err := tr.Spill(versionObjs("sim/f", 2, batch, 64)...)
			if !errors.Is(err, errInjected) || !tr.Degraded() {
				t.Fatalf("crash=%v k=%d: spill err = %v", crash, k, err)
			}
			if tr.Has("sim/f", 2) || tr.Stats().Entries != 1 || tr.Stats().Spills != 1 {
				t.Fatalf("crash=%v k=%d: failed batch left state: %+v", crash, k, tr.Stats())
			}
			if !crash && len(be.List("tier/0/o/")) != 2 {
				t.Fatalf("k=%d: rollback left records: %v", k, be.List("tier/0/o/"))
			}
			re := New(be.Store, "0")
			if re.Has("sim/f", 2) || !re.Has("sim/f", 1) {
				t.Fatalf("crash=%v k=%d: reattach versions = %v", crash, k, re.Versions("sim/f"))
			}
			if got := be.List("tier/0/o/"); len(got) != 2 {
				t.Fatalf("crash=%v k=%d: orphans survive reattach: %v", crash, k, got)
			}
		}
	}
	// Past the last write the same batch commits in one manifest commit.
	be := &crashBackend{Store: pfs.NewStore()}
	tr := New(be, "0")
	if err := tr.Spill(versionObjs("sim/f", 2, batch, 64)...); err != nil || be.writes != writes {
		t.Fatalf("spill: %v after %d writes, want %d", err, be.writes, writes)
	}
	if got := New(be.Store, "0").Stats().Entries; got != batch {
		t.Fatalf("reattached entries = %d", got)
	}
}
