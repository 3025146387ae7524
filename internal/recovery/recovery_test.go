package recovery

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"gospaces/internal/corec"
	"gospaces/internal/domain"
	"gospaces/internal/failure"
	"gospaces/internal/health"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

var fastDetect = health.Config{
	Period:       5 * time.Millisecond,
	Timeout:      20 * time.Millisecond,
	SuspectAfter: 2,
	DeadAfter:    4,
}

func groupConfig(n int) staging.Config {
	return staging.Config{
		Global:   domain.Box3(0, 0, 0, 63, 63, 0),
		NServers: n,
		Bits:     2,
		ElemSize: 1,
	}
}

// deadConn stands in for a server that cannot even be dialled; corec
// treats its call failures as lost shards (degraded read).
type deadConn struct{}

func (deadConn) Call(any) (any, error) { return nil, transport.ErrNoEndpoint }
func (deadConn) Close() error          { return nil }

// dialAll connects to each addr, substituting a dead stub for servers
// that refuse the dial (blacked out or fail-stopped).
func dialAll(t testing.TB, tr transport.Transport, addrs []string) []transport.Client {
	t.Helper()
	conns := make([]transport.Client, len(addrs))
	for i, a := range addrs {
		c, err := tr.Dial(a)
		if err != nil {
			conns[i] = deadConn{}
			continue
		}
		conns[i] = c
	}
	return conns
}

func protect(t testing.TB, tr transport.Transport, addrs []string, cfg corec.Config, keys []string, payload func(k string) []byte) {
	t.Helper()
	conns := dialAll(t, tr, addrs)
	defer closeAll(conns)
	rc, err := corec.New(cfg, conns)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := rc.Put(k, payload(k)); err != nil {
			t.Fatalf("protect %s: %v", k, err)
		}
	}
}

func payloadFor(k string) []byte {
	out := make([]byte, 1024)
	for i := range out {
		out[i] = byte(i * 3)
	}
	copy(out, k)
	return out
}

func TestSupervisorPromotesAndReprotects(t *testing.T) {
	tr := transport.NewInProc()
	g, err := staging.StartGroup(tr, "stage", groupConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	spareAddr, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}

	red := corec.Config{Mode: corec.ErasureCoding, K: 2, M: 2}
	keys := []string{"k/0", "k/1", "k/2", "k/3", "k/4"}
	protect(t, tr, g.Membership().Addrs(), red, keys, payloadFor)

	sup := New(tr, g, Config{Detector: fastDetect, Redundancy: &red})
	defer sup.Close()
	sup.Start()

	if err := g.FailStop(1); err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	if e := g.Membership().Epoch(); e != 2 {
		t.Fatalf("epoch = %d", e)
	}
	if a := g.Membership().Addr(1); a != spareAddr {
		t.Fatalf("slot 1 = %s, want %s", a, spareAddr)
	}
	if a, e := g.Pool.Addrs()[1], g.Pool.Epoch(); a != spareAddr || e != 2 {
		t.Fatalf("client pool slot 1 = %s at epoch %d, want %s at 2", a, e, spareAddr)
	}
	m := sup.Metrics()
	if m.Counter("recovery.promotions").Value() != 1 {
		t.Fatalf("promotions = %d", m.Counter("recovery.promotions").Value())
	}
	if m.Counter("recovery.rebuilds").Value() == 0 || m.Counter("recovery.rebuild_bytes").Value() == 0 {
		t.Fatalf("rebuilds = %d, bytes = %d",
			m.Counter("recovery.rebuilds").Value(), m.Counter("recovery.rebuild_bytes").Value())
	}
	if m.Counter("recovery.duration_ns").Value() <= 0 {
		t.Fatal("no recovery duration recorded")
	}

	// The replacement holds rebuilt shards: storage overhead restored.
	raw, err := g.ServerAt(spareAddr).Handle(staging.StatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	st := raw.(staging.StatsResp)
	if st.ShardBytes == 0 || st.RebuiltShards == 0 {
		t.Fatalf("replacement stats = %+v", st)
	}

	// Full redundancy is back: reads survive losing two MORE shards.
	conns := dialAll(t, tr, g.Membership().Addrs())
	defer closeAll(conns)
	rc, err := corec.New(red, conns)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		got, err := rc.Get(k)
		if err != nil || !bytes.Equal(got, payloadFor(k)) {
			t.Fatalf("post-recovery read %s: %v", k, err)
		}
	}
}

func TestSupervisorNoSpare(t *testing.T) {
	tr := transport.NewInProc()
	g, err := staging.StartGroup(tr, "stage", groupConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sup := New(tr, g, Config{Detector: fastDetect})
	defer sup.Close()
	sup.Start()
	if err := g.FailStop(2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sup.Metrics().Counter("recovery.no_spare").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no_spare never recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if e := g.Membership().Epoch(); e != 1 {
		t.Fatalf("epoch bumped to %d without a spare", e)
	}
}

// TestRecoveryUnderChaosSchedule is the integration test for the fault
// model: a live transport.Chaos schedule injects a transient
// ServerCrash on one member and a permanent ServerFailStop on another.
// CoREC reads must stay byte-identical before, during, and after the
// supervised repair, and exactly the fail-stop (not the crash) must
// trigger a promotion.
func TestRecoveryUnderChaosSchedule(t *testing.T) {
	inner := transport.NewInProc()
	chaos := transport.NewChaos(inner, 42)
	g, err := staging.StartGroup(chaos, "stage", groupConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	spareAddr, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}

	red := corec.Config{Mode: corec.ErasureCoding, K: 2, M: 2}
	keys := []string{"obj/a", "obj/b", "obj/c"}
	protect(t, chaos, g.Membership().Addrs(), red, keys, payloadFor)

	readAll := func(stage string) {
		conns := dialAll(t, chaos, g.Membership().Addrs())
		defer closeAll(conns)
		rc, err := corec.New(red, conns)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			got, err := rc.Get(k)
			if err != nil || !bytes.Equal(got, payloadFor(k)) {
				t.Fatalf("%s read %s: %v", stage, k, err)
			}
		}
	}
	readAll("pre-fault")

	// Crash server 2 transiently (recovers at ~90ms) and fail-stop
	// server 1 permanently, both immediately. The detector's Dead
	// threshold (12 consecutive misses at 15ms = 180ms) outlasts the
	// crash window, so only the fail-stop is promoted — a transient
	// blackout must never spend the spare.
	sched := failure.Fixed(
		failure.Injection{At: time.Millisecond, Server: 2, Kind: failure.ServerCrash, Duration: 90 * time.Millisecond},
		failure.Injection{At: time.Millisecond, Server: 1, Kind: failure.ServerFailStop},
	)
	chaos.Apply(sched, g.Membership().Addrs())

	sup := New(chaos, g, Config{Redundancy: &red, Detector: health.Config{
		Period:       15 * time.Millisecond,
		Timeout:      60 * time.Millisecond,
		SuspectAfter: 2,
		DeadAfter:    12,
	}})
	defer sup.Close()
	sup.Start()

	// Degraded reads while both faults are active: two of four shards
	// are unreachable, exactly K survive.
	time.Sleep(20 * time.Millisecond)
	readAll("degraded")

	if err := sup.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := sup.Metrics()
	if v := m.Counter("recovery.promotions").Value(); v != 1 {
		t.Fatalf("promotions = %d (crash must not promote)", v)
	}
	if m.Counter("recovery.rebuilds").Value() == 0 {
		t.Fatal("no rebuilds recorded")
	}
	if g.Membership().Addr(1) != spareAddr {
		t.Fatalf("slot 1 = %s", g.Membership().Addr(1))
	}
	readAll("post-recovery")

	// And the repair is real: lose two different members; the rebuilt
	// shards on the replacement must carry the reconstruction.
	chaos.Blackout(g.Membership().Addr(0), time.Minute)
	chaos.Blackout(g.Membership().Addr(3), time.Minute)
	readAll("post-recovery degraded")
}

// BenchmarkRebuildVsObjectCount measures supervised re-protection time
// as the number of protected objects grows (EXPERIMENTS.md §recovery).
func BenchmarkRebuildVsObjectCount(b *testing.B) {
	for _, objects := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("objects=%d", objects), func(b *testing.B) {
			tr := transport.NewInProc()
			g, err := staging.StartGroup(tr, "stage", groupConfig(4))
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			red := corec.Config{Mode: corec.ErasureCoding, K: 2, M: 2}
			keys := make([]string, objects)
			for i := range keys {
				keys[i] = fmt.Sprintf("k/%d", i)
			}
			protect(b, tr, g.Membership().Addrs(), red, keys, payloadFor)
			sup := New(tr, g, Config{Detector: fastDetect, Redundancy: &red})
			defer sup.Close()
			var bytesRestored int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Empty one member out-of-band so each iteration re-protects
				// the same share of shards.
				if err := g.ReplaceServer(1); err != nil {
					b.Fatal(err)
				}
				before := sup.Metrics().Counter("recovery.rebuild_bytes").Value()
				b.StartTimer()
				sup.reprotect(g.Membership().Addrs())
				b.StopTimer()
				bytesRestored += sup.Metrics().Counter("recovery.rebuild_bytes").Value() - before
				b.StartTimer()
			}
			b.ReportMetric(float64(bytesRestored)/float64(b.N), "bytes/op")
		})
	}
}
