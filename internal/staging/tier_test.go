package staging

import (
	"bytes"
	"errors"
	"testing"

	"gospaces/internal/domain"
	"gospaces/internal/pfs"
	"gospaces/internal/tier"
	"gospaces/internal/transport"
)

// tierGroup starts a group whose servers each get a private in-memory
// PFS cold tier and a budget small enough that logged versions spill.
func tierGroup(t *testing.T, nservers int, budget int64, k int) (*Group, map[int]*pfs.Store) {
	t.Helper()
	backends := map[int]*pfs.Store{}
	g, err := StartGroup(transport.NewInProc(), "stage", Config{
		Global:                domain.Box3(0, 0, 0, 63, 63, 0),
		NServers:              nservers,
		Bits:                  2,
		ElemSize:              1,
		MemoryBudgetPerServer: budget,
		WlogReplicas:          k,
		TierBackend: func(id int) tier.Backend {
			be := pfs.NewStore()
			backends[id] = be
			return be
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, backends
}

// TestTierSpillAndPromoteOnGet drives logged puts past the spill
// watermark and checks: cold versions demote to the PFS tier instead of
// rejecting the put, resident bytes stay under budget, and a replay
// read of a spilled version transparently promotes it back with a
// byte-exact payload.
func TestTierSpillAndPromoteOnGet(t *testing.T) {
	const budget = 12000 // ~3 versions of 4096B; spill water 0.6 = 7200
	g, _ := tierGroup(t, 1, budget, 0)
	prod, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	cons, err := g.NewClient("ana/0")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	global := g.Config().Global
	n := domain.BufLen(global, 1)
	payload := func(v int64) []byte {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(int64(i)*3 + v)
		}
		return buf
	}
	for v := int64(1); v <= 6; v++ {
		if err := prod.PutWithLog("field", v, global, payload(v)); err != nil {
			t.Fatalf("put v%d: %v", v, err)
		}
	}
	srv := g.Server(0)
	st := srv.tier.Stats()
	if st.Spills == 0 || st.Entries == 0 {
		t.Fatalf("no versions spilled under budget pressure: %+v", st)
	}
	if used := srv.store.BytesUsed(); used > budget {
		t.Fatalf("resident %d bytes exceeds budget %d despite tier", used, budget)
	}
	// The oldest versions must have left RAM for the tier.
	if !srv.tier.HasName("field") {
		t.Fatal("tier holds nothing for field")
	}
	// Replay reads of spilled versions promote transparently.
	for v := int64(1); v <= 6; v++ {
		got, _, err := cons.GetWithLog("field", v, global)
		if err != nil {
			t.Fatalf("get v%d: %v", v, err)
		}
		if !bytes.Equal(got, payload(v)) {
			t.Fatalf("v%d payload diverged after spill/promote round trip", v)
		}
	}
	if st = srv.tier.Stats(); st.Promotes == 0 {
		t.Fatalf("reads of spilled versions promoted nothing: %+v", st)
	}
	// The control RPC reports the same accounting.
	raw, err := srv.handleTierStats()
	if err != nil {
		t.Fatal(err)
	}
	resp := raw.(TierStatsResp)
	if !resp.Enabled || resp.Spills != st.Spills || resp.Promotes != st.Promotes {
		t.Fatalf("TierStats mismatch: %+v vs %+v", resp, st)
	}
}

// TestTierScrubRPCHealsBitRot corrupts one generation of a spilled
// record at rest and checks the scrub RPC heals it from the twin — and
// that the promoted payload stays byte-exact.
func TestTierScrubRPCHealsBitRot(t *testing.T) {
	g, backends := tierGroup(t, 1, 12000, 0)
	prod, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	global := g.Config().Global
	n := domain.BufLen(global, 1)
	for v := int64(1); v <= 6; v++ {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(int64(i) + v)
		}
		if err := prod.PutWithLog("field", v, global, buf); err != nil {
			t.Fatal(err)
		}
	}
	be := backends[0]
	names := be.List("tier/")
	corrupted := 0
	for _, name := range names {
		if len(name) > 2 && name[len(name)-2:] == "g0" {
			if be.Corrupt(name, 40) {
				corrupted++
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("nothing to corrupt: no g0 records on the backend")
	}
	raw, err := g.Server(0).handleTierScrub()
	if err != nil {
		t.Fatal(err)
	}
	resp := raw.(TierScrubResp)
	if !resp.Enabled || resp.Healed == 0 {
		t.Fatalf("scrub healed nothing after %d corruptions: %+v", corrupted, resp)
	}
	if resp.Lost != 0 {
		t.Fatalf("single-generation corruption lost %d entries", resp.Lost)
	}
}

// TestWlogInstallResetsTier: a promoted spare's stale pre-promotion
// tier is dropped when the dead server's state is installed, so replay
// reads never resurrect pre-promotion versions.
func TestWlogInstallResetsTier(t *testing.T) {
	g, _ := tierGroup(t, 2, 12000, 1)
	prod, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	global := g.Config().Global
	n := domain.BufLen(global, 1)
	for v := int64(1); v <= 6; v++ {
		if err := prod.PutWithLog("field", v, global, fill(n, v)); err != nil {
			t.Fatal(err)
		}
	}
	srv := g.Server(0)
	if !srv.tier.HasName("field") {
		t.Skip("budget did not force a spill on server 0")
	}
	st := fetchReplica(t, g.Server(1), 0)
	if _, err := srv.handleWlogInstall(WlogInstallReq{Slot: 0, State: st}); err != nil {
		t.Fatal(err)
	}
	if srv.tier.HasName("field") {
		t.Fatal("tier survived a wlog install; stale spilled versions would shadow the restored state")
	}
}

// dyingBackend drops every backend mutation from the failAt-th Write on
// (0 = never): the PFS target dies partway through a spill, and not
// even the rollback's deletes reach it.
type dyingBackend struct {
	*pfs.Store
	writes, failAt int
}

func (d *dyingBackend) dead() bool { return d.failAt > 0 && d.writes >= d.failAt }

func (d *dyingBackend) Write(name string, data []byte) error {
	d.writes++
	if d.dead() {
		return errors.New("injected backend fault")
	}
	return d.Store.Write(name, data)
}

func (d *dyingBackend) Rename(old, new string) error {
	if d.dead() {
		return errors.New("injected backend fault")
	}
	return d.Store.Rename(old, new)
}

func (d *dyingBackend) Delete(name string) {
	if !d.dead() {
		d.Store.Delete(name)
	}
}

// TestTierSpillVersionAtomic spills a version staged as many objects
// and kills the backend at each write of that spill in turn: nothing of
// the version is committed to the tier, all of it stays resident and
// reads back byte-exact, and a reattach collects the orphaned records.
func TestTierSpillVersionAtomic(t *testing.T) {
	const budget = 12000 // spill water 7200: the second half of v2 spills v1
	type result struct {
		st       tier.Stats
		resident int // objects of v1 in RAM after the puts
		be       *dyingBackend
		v1       []byte
	}
	run := func(failAt int) result {
		be := &dyingBackend{Store: pfs.NewStore(), failAt: failAt}
		g, err := StartGroup(transport.NewInProc(), "stage", Config{
			Global:                domain.Box3(0, 0, 0, 63, 63, 0),
			NServers:              1,
			Bits:                  2,
			ElemSize:              1,
			MemoryBudgetPerServer: budget,
			TierBackend:           func(int) tier.Backend { return be },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		prod, err := g.NewClient("sim/0")
		if err != nil {
			t.Fatal(err)
		}
		defer prod.Close()
		halves := []domain.BBox{domain.Box3(0, 0, 0, 31, 63, 0), domain.Box3(32, 0, 0, 63, 63, 0)}
		for v := int64(1); v <= 2; v++ {
			for i, box := range halves {
				if err := prod.PutWithLog("field", v, box, fill(2048, 10*v+int64(i))); err != nil {
					t.Fatalf("put v%d/%d: %v", v, i, err)
				}
			}
		}
		srv := g.Server(0)
		r := result{st: srv.tier.Stats(), resident: len(srv.store.VersionObjects("field", 1)), be: be}
		if r.v1, _, err = prod.GetWithLog("field", 1, g.Config().Global); err != nil {
			t.Fatalf("get v1: %v", err)
		}
		return r
	}
	ok := run(0)
	objs := int(ok.st.Spills)
	if objs < 2 || ok.st.Entries != objs || ok.resident != 0 {
		t.Fatalf("fault-free run did not spill v1 as one multi-object batch: %+v, %d resident", ok.st, ok.resident)
	}
	if ok.be.writes < 2*objs+2 {
		t.Fatalf("fault-free spill made %d backend writes for %d objects", ok.be.writes, objs)
	}
	for k := 1; k <= 2*objs+2; k++ {
		r := run(k)
		if r.st.Entries != 0 || r.st.Spills != 0 || !r.st.Degraded {
			t.Fatalf("k=%d: failed spill left tier state %+v", k, r.st)
		}
		if r.resident != objs {
			t.Fatalf("k=%d: %d of %d objects of v1 still resident", k, r.resident, objs)
		}
		if !bytes.Equal(r.v1, ok.v1) {
			t.Fatalf("k=%d: v1 diverged after the failed spill", k)
		}
		// Reattach sees none of the version, with its orphans collected.
		// Only a fault at the final marker write differs: the renamed
		// generation is then the only manifest, so the whole version is
		// committed on disk while RAM still holds it — duplicated, never
		// half-moved.
		n := tier.New(r.be.Store, "0").Stats().Entries
		if (n != 0 && (n != objs || k != 2*objs+2)) || len(r.be.List("tier/0/o/")) != 2*n {
			t.Fatalf("k=%d: reattach indexed %d entries over records %v", k, n, r.be.List("tier/0/o/"))
		}
	}
}
