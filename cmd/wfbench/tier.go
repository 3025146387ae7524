package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"gospaces/internal/domain"
	"gospaces/internal/pfs"
	"gospaces/internal/recovery"
	"gospaces/internal/staging"
	"gospaces/internal/tier"
	"gospaces/internal/transport"
)

// tierReport is the BENCH_tier.json payload: the cold-tier spill and
// promote latencies as a client observes them, the incremental-vs-
// snapshot-only replication resync traffic A/B, and the recovery time
// of a fail-stopped server whose history had partly spilled to disk.
type tierReport struct {
	// Spill/promote micro (one server, directory-backed PFS tier).
	Versions      int     `json:"versions"`
	VersionBytes  int     `json:"version_bytes"`
	BudgetBytes   int64   `json:"budget_bytes"`
	Spills        int64   `json:"spills"`
	SpillBytes    int64   `json:"spill_bytes"`
	Promotes      int64   `json:"promotes"`
	WarmPutP50Ms  float64 `json:"warm_put_p50_ms"`
	SpillPutP50Ms float64 `json:"spill_put_p50_ms"`
	SpillPutP99Ms float64 `json:"spill_put_p99_ms"`
	WarmGetP50Ms  float64 `json:"warm_get_p50_ms"`
	ColdGetP50Ms  float64 `json:"cold_get_p50_ms"`
	ColdGetP99Ms  float64 `json:"cold_get_p99_ms"`

	// Incremental (delta-since-anchor) vs snapshot-only replication:
	// resync traffic over the same schedule of transient stream kills.
	ReplCycles      int     `json:"repl_cycles"`
	DeltaResyncs    int64   `json:"delta_resyncs"`
	DeltaBytes      int64   `json:"delta_bytes"`
	SnapshotResyncs int64   `json:"snapshot_resyncs"`
	SnapshotBytes   int64   `json:"snapshot_bytes"`
	DeltaFraction   float64 `json:"delta_fraction_of_snapshot"`

	// Fail-stop recovery with a cold tier under the promoted state.
	RecoveryRuns     int     `json:"recovery_runs"`
	RecoveryMedianMs float64 `json:"recovery_median_ms"`
	RecoveryCorrupt  int64   `json:"recovery_corrupt_reads"`
	RecoverySpills   int64   `json:"recovery_tier_spills"`
	RecoveryPromotes int64   `json:"recovery_tier_promotes"`
}

// tierExp measures the cold-tier data path end to end and writes the
// readings to outPath as JSON: (1) client-observed put/get latency with
// and without spill/promote work on the path, (2) resync bytes shipped
// by incremental wlog replication vs the snapshot-only baseline under
// identical transient disconnects, (3) recovery time and byte-exactness
// when the failed server's logged history had partly spilled.
func tierExp(outPath string) error {
	var rep tierReport
	fmt.Println("== tier: PFS cold spill, incremental replication, recovery ==")
	if err := tierMicro(&rep); err != nil {
		return fmt.Errorf("tier micro: %w", err)
	}
	fmt.Printf("  micro: %d spills (%d B), %d promotes | put p50 warm %.3fms spill %.3fms | get p50 warm %.3fms cold %.3fms\n",
		rep.Spills, rep.SpillBytes, rep.Promotes,
		rep.WarmPutP50Ms, rep.SpillPutP50Ms, rep.WarmGetP50Ms, rep.ColdGetP50Ms)

	if err := tierReplAB(&rep); err != nil {
		return fmt.Errorf("tier repl A/B: %w", err)
	}
	fmt.Printf("  repl: %d delta resyncs %d B vs %d snapshot resyncs %d B -> delta ships %.1f%% of baseline (want <= 25%%)\n",
		rep.DeltaResyncs, rep.DeltaBytes, rep.SnapshotResyncs, rep.SnapshotBytes, 100*rep.DeltaFraction)

	if err := tierRecovery(&rep); err != nil {
		return fmt.Errorf("tier recovery: %w", err)
	}
	fmt.Printf("  recovery: median %.1fms over %d runs, %d corrupt reads, %d spills / %d promotes across the runs\n",
		rep.RecoveryMedianMs, rep.RecoveryRuns, rep.RecoveryCorrupt, rep.RecoverySpills, rep.RecoveryPromotes)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote tier measurements to %s\n", outPath)
	if rep.DeltaFraction > 0.25 {
		return fmt.Errorf("incremental replication shipped %.1f%% of the snapshot-only baseline (acceptance: <= 25%%)", 100*rep.DeltaFraction)
	}
	return nil
}

// tierStats sums the TierStats view over a group's live servers.
func tierStats(g *staging.Group, n int) staging.TierStatsResp {
	var sum staging.TierStatsResp
	for i := 0; i < n; i++ {
		srv := g.Server(i)
		if srv == nil {
			continue
		}
		raw, err := srv.Handle(staging.TierStatsReq{})
		if err != nil {
			continue
		}
		st, ok := raw.(staging.TierStatsResp)
		if !ok {
			continue
		}
		sum.Spills += st.Spills
		sum.SpillBytes += st.SpillBytes
		sum.Promotes += st.Promotes
		sum.PromoteBytes += st.PromoteBytes
		sum.DeltaResyncs += st.DeltaResyncs
		sum.DeltaBytes += st.DeltaBytes
		sum.SnapshotsSent += st.SnapshotsSent
		sum.SnapshotBytes += st.SnapshotBytes
	}
	return sum
}

// tierMicro drives one server with a directory-backed tier past its
// spill watermark and separates client-observed latency into warm puts
// (no spill work), spilling puts, warm gets (resident version), and
// cold gets (promote-on-get of a spilled version).
func tierMicro(rep *tierReport) error {
	const versions = 12
	global := domain.Box3(0, 0, 0, 63, 63, 15) // 512 KiB per version at elem 8
	verBytes := int(domain.BufLen(global, 8))
	budget := int64(3 * verBytes) // water 0.6 -> spill past ~1.8 versions
	dir, err := os.MkdirTemp("", "wfbench-tier-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	g, err := staging.StartGroup(transport.NewInProc(), "tiermicro", staging.Config{
		Global:                global,
		NServers:              1,
		Bits:                  2,
		ElemSize:              8,
		MemoryBudgetPerServer: budget,
		TierBackend: func(id int) tier.Backend {
			be, err := pfs.NewDirStore(fmt.Sprintf("%s/s%d", dir, id))
			if err != nil {
				panic(err)
			}
			return be
		},
	})
	if err != nil {
		return err
	}
	defer g.Close()
	c, err := g.NewClient("sim/0")
	if err != nil {
		return err
	}
	defer c.Close()

	payload := func(v int64) []byte {
		buf := make([]byte, verBytes)
		for i := range buf {
			buf[i] = byte(int64(i)*5 + v)
		}
		return buf
	}
	var warmPuts, spillPuts, warmGets, coldGets []time.Duration
	for v := int64(1); v <= versions; v++ {
		before := tierStats(g, 1).Spills
		t0 := time.Now()
		if err := c.PutWithLog("field", v, global, payload(v)); err != nil {
			return err
		}
		d := time.Since(t0)
		if tierStats(g, 1).Spills > before {
			spillPuts = append(spillPuts, d)
		} else {
			warmPuts = append(warmPuts, d)
		}
	}
	// Oldest-first reads hit spilled versions (promote-on-get); the
	// newest stayed resident.
	for v := int64(1); v <= versions; v++ {
		before := tierStats(g, 1).Promotes
		t0 := time.Now()
		data, _, err := c.GetWithLog("field", v, global)
		if err != nil {
			return err
		}
		d := time.Since(t0)
		if !bytes.Equal(data, payload(v)) {
			return fmt.Errorf("version %d diverged after spill/promote round trip", v)
		}
		if tierStats(g, 1).Promotes > before {
			coldGets = append(coldGets, d)
		} else {
			warmGets = append(warmGets, d)
		}
	}
	st := tierStats(g, 1)
	if st.Spills == 0 || st.Promotes == 0 {
		return fmt.Errorf("budget pressure exercised no spill/promote traffic: %+v", st)
	}
	rep.Versions = versions
	rep.VersionBytes = verBytes
	rep.BudgetBytes = budget
	rep.Spills = st.Spills
	rep.SpillBytes = st.SpillBytes
	rep.Promotes = st.Promotes
	rep.WarmPutP50Ms = percentileMs(warmPuts, 0.50)
	rep.SpillPutP50Ms = percentileMs(spillPuts, 0.50)
	rep.SpillPutP99Ms = percentileMs(spillPuts, 0.99)
	rep.WarmGetP50Ms = percentileMs(warmGets, 0.50)
	rep.ColdGetP50Ms = percentileMs(coldGets, 0.50)
	rep.ColdGetP99Ms = percentileMs(coldGets, 0.99)
	return nil
}

// tierReplRun drives one replication group through warmup traffic plus
// a schedule of transient replica-host blackouts: records put during a
// blackout cannot be shipped, so when the host comes back the origin
// must re-sync the lagging (but state-retaining) peer. Puts cover only
// the origin's shard region, so the client never blocks on the blacked
// host. snapshotOnly zeroes the retained window first, turning every
// re-sync into the full-state baseline the incremental path is measured
// against. Returns the summed resync counters.
func tierReplRun(snapshotOnly bool) (staging.TierStatsResp, error) {
	const (
		nservers = 2
		warmup   = 8
		cycles   = 6
		perCycle = 3
		blackout = 60 * time.Millisecond
	)
	global := domain.Box3(0, 0, 0, 63, 63, 0)
	// The x<32 half of the domain hashes wholly onto server 0: puts of
	// this box make server 0 the only origin, and server 1 purely its
	// replica host — the one we black out.
	box := domain.Box3(0, 0, 0, 31, 63, 0)
	chaos := transport.NewChaos(transport.NewInProc(), 1)
	g, err := staging.StartGroup(chaos, "tierrepl", staging.Config{
		Global:       global,
		NServers:     nservers,
		Bits:         2,
		ElemSize:     8,
		WlogReplicas: 1,
		// The tier itself stays idle here (no budget, nothing spills);
		// it is attached so the TierStats control RPC carries the
		// replication counters.
		TierBackend: func(id int) tier.Backend { return pfs.NewStore() },
	})
	if err != nil {
		return staging.TierStatsResp{}, err
	}
	defer g.Close()
	if snapshotOnly {
		for i := 0; i < nservers; i++ {
			g.Server(i).SetReplWindow(0)
		}
	}
	c, err := g.NewClient("sim/0")
	if err != nil {
		return staging.TierStatsResp{}, err
	}
	defer c.Close()
	n := domain.BufLen(box, 8)
	put := func(v int64) error {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(int64(i)*7 + v)
		}
		return c.PutWithLog("field", v, box, buf)
	}
	v := int64(0)
	for i := 0; i < warmup; i++ {
		v++
		if err := put(v); err != nil {
			return staging.TierStatsResp{}, err
		}
	}
	hostAddr := g.Addrs()[1]
	for cyc := 0; cyc < cycles; cyc++ {
		start := time.Now()
		chaos.Blackout(hostAddr, blackout)
		chaos.KillConns(hostAddr)
		// Records put now are missed by the blacked-out host.
		for i := 0; i < perCycle; i++ {
			v++
			if err := put(v); err != nil {
				return staging.TierStatsResp{}, err
			}
		}
		time.Sleep(blackout - time.Since(start) + 10*time.Millisecond)
		// The host is back; this put makes the origin reconnect and
		// re-sync the lagging peer.
		v++
		if err := put(v); err != nil {
			return staging.TierStatsResp{}, err
		}
	}
	// Let the async senders finish their resyncs before reading the
	// counters.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		st := tierStats(g, nservers)
		if st.DeltaResyncs+st.SnapshotsSent > 0 && st.DeltaBytes+st.SnapshotBytes > 0 {
			time.Sleep(20 * time.Millisecond)
			next := tierStats(g, nservers)
			if next == st {
				return st, nil
			}
			continue
		}
		time.Sleep(5 * time.Millisecond)
	}
	return tierStats(g, nservers), nil
}

// tierReplAB runs the same disconnect schedule with the incremental
// window on and with snapshot-only resyncs, and reports the shipped
// resync bytes of each.
func tierReplAB(rep *tierReport) error {
	inc, err := tierReplRun(false)
	if err != nil {
		return err
	}
	base, err := tierReplRun(true)
	if err != nil {
		return err
	}
	if inc.DeltaResyncs == 0 {
		return fmt.Errorf("incremental run served no delta resyncs: %+v", inc)
	}
	if base.SnapshotsSent == 0 {
		return fmt.Errorf("baseline run served no snapshots: %+v", base)
	}
	rep.ReplCycles = 6
	rep.DeltaResyncs = inc.DeltaResyncs
	rep.DeltaBytes = inc.DeltaBytes
	rep.SnapshotResyncs = base.SnapshotsSent
	rep.SnapshotBytes = base.SnapshotBytes
	if base.SnapshotBytes > 0 {
		rep.DeltaFraction = float64(inc.DeltaBytes) / float64(base.SnapshotBytes)
	}
	return nil
}

// tierRecovery fail-stops a server whose logged history partly spilled
// to its cold tier, lets a supervisor promote the warm spare and
// restore the replicated log, and measures the time until every slot is
// alive again — then reads the whole history back byte-exactly through
// the promoted server.
func tierRecovery(rep *tierReport) error {
	const versions = 10
	runs := 3
	global := domain.Box3(0, 0, 0, 63, 63, 0)
	var mttrs []time.Duration
	for run := 0; run < runs; run++ {
		tr := transport.NewInProc()
		g, err := staging.StartGroup(tr, "tierrec", staging.Config{
			Global:                global,
			NServers:              2,
			Bits:                  2,
			ElemSize:              1,
			WlogReplicas:          1,
			MemoryBudgetPerServer: 4 * global.Volume(),
			TierBackend:           func(id int) tier.Backend { return pfs.NewStore() },
		})
		if err != nil {
			return err
		}
		if _, err := g.AddSpare(); err != nil {
			g.Close()
			return err
		}
		prod, err := g.NewClient("sim/0")
		if err != nil {
			g.Close()
			return err
		}
		n := domain.BufLen(global, 1)
		payload := func(v int64) []byte {
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(int64(i)*7 + v*131 + 1)
			}
			return buf
		}
		for v := int64(1); v <= versions; v++ {
			if err := prod.PutWithLog("field", v, global, payload(v)); err != nil {
				g.Close()
				return err
			}
		}
		sup := recovery.New(tr, g, recovery.Config{
			ID:       "wfbench/tiersup",
			LeaseTTL: 150 * time.Millisecond,
			Detector: fastDetector,
		})
		sup.Start()
		start := time.Now()
		if err := g.FailStop(1); err != nil {
			sup.Close()
			g.Close()
			return err
		}
		if err := sup.WaitIdle(20 * time.Second); err != nil {
			sup.Close()
			g.Close()
			return err
		}
		mttrs = append(mttrs, time.Since(start))
		// Byte-exact replay through the promoted server: every version,
		// including the ones that had spilled before the death. The
		// client's call path rebinds to the post-promotion membership on
		// its first failed call.
		for v := int64(1); v <= versions; v++ {
			data, _, err := prod.GetWithLog("field", v, global)
			if err != nil || !bytes.Equal(data, payload(v)) {
				rep.RecoveryCorrupt++
			}
		}
		st := tierStats(g, 2)
		rep.RecoverySpills += st.Spills
		rep.RecoveryPromotes += st.Promotes
		prod.Close()
		sup.Close()
		g.Close()
	}
	sort.Slice(mttrs, func(i, j int) bool { return mttrs[i] < mttrs[j] })
	rep.RecoveryRuns = runs
	rep.RecoveryMedianMs = float64(mttrs[len(mttrs)/2]) / float64(time.Millisecond)
	if rep.RecoverySpills == 0 {
		return fmt.Errorf("recovery runs exercised no tier spills")
	}
	return nil
}
