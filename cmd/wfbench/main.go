// Command wfbench regenerates the tables and figures of the paper's
// evaluation (Duan & Parashar, IPDPS 2020, §IV).
//
// Usage:
//
//	wfbench -exp fig9a|fig9b|fig9c|fig9d|fig9e|fig10|table1|table2|table3|all
//	        [-seeds n] [-steps n] [-reps n]
//
// Figures 9(a)–(d) measure the live staging service in this process;
// Figure 9(e) and Figure 10 run the crash-consistency protocol on the
// virtual-time simulator at the paper's Cori scales.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"gospaces"
	"gospaces/internal/cluster"
	"gospaces/internal/domain"
	"gospaces/internal/expt"
	"gospaces/internal/health"
	"gospaces/internal/recovery"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1, table2, table3, fig9a, fig9b, fig9c, fig9d, fig9e, fig10, sweep, motivation, failstop, logrepl, nemesis, transport, overload, tier, soak, all")
	seeds := flag.Int("seeds", 5, "number of failure-schedule seeds for the simulated experiments")
	steps := flag.Int64("steps", 20, "coupling cycles for the live staging measurements")
	reps := flag.Int("reps", 5, "repetitions (median) for the live staging measurements")
	out := flag.String("out", "", "output file for the transport/tier experiment's JSON measurements (default BENCH_<exp>.json)")
	outOverload := flag.String("out-overload", "BENCH_overload.json", "output file for the overload experiment's JSON measurements")
	soakGroups := flag.Int("soak-groups", 2, "producer/consumer pairs per churn soak")
	soakSteps := flag.Int("soak-steps", 5, "logged versions per producer in a churn soak")
	soakFaults := flag.Int("soak-faults", 6, "injected faults per churn soak (0 = clean)")
	soakTier := flag.Bool("soak-tier", true, "give soak servers a cold tier and storage faults")
	soakOverload := flag.Bool("soak-overload", true, "enable admission control and flood bursts in soaks")
	traceDir := flag.String("trace-dir", ".", "directory for failing soak runs' persisted traces")
	replay := flag.String("replay", "", "replay one persisted soak trace file instead of recording")
	flag.Parse()

	expt.Reps = *reps
	live := expt.DefaultLiveParams()
	live.Steps = *steps
	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}

	run := func(name string) error {
		switch name {
		case "table1":
			return table1()
		case "table2":
			return table2()
		case "table3":
			return table3()
		case "fig9a", "fig9c":
			rows, err := expt.Fig9Case1(live)
			if err != nil {
				return err
			}
			expt.WriteCase1(os.Stdout, rows)
		case "fig9b", "fig9d":
			rows, err := expt.Fig9Case2(live)
			if err != nil {
				return err
			}
			expt.WriteCase2(os.Stdout, rows)
		case "fig9e":
			rows, err := expt.Fig9e(seedList)
			if err != nil {
				return err
			}
			case2, err := expt.Fig9eCase2(seedList)
			if err != nil {
				return err
			}
			expt.WriteFig9e(os.Stdout, rows, case2)
		case "fig10":
			rows, err := expt.Fig10(seedList)
			if err != nil {
				return err
			}
			expt.WriteFig10(os.Stdout, rows)
		case "sweep":
			rows, err := expt.MTBFSweep(seedList)
			if err != nil {
				return err
			}
			expt.WriteSweep(os.Stdout, rows)
		case "motivation":
			return motivation()
		case "failstop":
			return failstop()
		case "logrepl":
			return logrepl()
		case "nemesis":
			return nemesisExp()
		case "transport":
			return transportExp(orDefault(*out, "BENCH_transport.json"))
		case "overload":
			return overloadExp(*outOverload)
		case "tier":
			return tierExp(orDefault(*out, "BENCH_tier.json"))
		case "soak":
			return soakExp(soakParams{
				seeds:    seedList,
				groups:   *soakGroups,
				steps:    *soakSteps,
				faults:   *soakFaults,
				tier:     *soakTier,
				overload: *soakOverload,
				traceDir: *traceDir,
				replay:   *replay,
			})
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	var names []string
	if *exp == "all" {
		names = []string{"table1", "table2", "table3", "motivation", "failstop", "logrepl", "nemesis", "fig9a", "fig9b", "fig9e", "fig10", "sweep"}
	} else {
		names = []string{*exp}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			fmt.Fprintf(os.Stderr, "wfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
	}
}

// orDefault substitutes def for an unset output-path flag.
func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// motivation runs the paper's Figure 2 scenario live — one consumer
// failure under each scheme — and prints whether the results stayed
// correct. This is the paper's core claim demonstrated on real staging
// servers with byte-level verification.
func motivation() error {
	t := &expt.Table{
		Title:   "Fig 2 motivation (live): one analytic failure under each scheme",
		Headers: []string{"scheme", "recoveries", "replayed", "suppressed", "corrupt reads", "verdict"},
	}
	for _, scheme := range []gospaces.Scheme{
		gospaces.Coordinated, gospaces.Uncoordinated, gospaces.Individual, gospaces.Hybrid,
	} {
		res, err := gospaces.RunWorkflow(gospaces.WorkflowOptions{
			Scheme:      scheme,
			Steps:       12,
			Global:      gospaces.Box3(0, 0, 0, 63, 63, 31),
			SimRanks:    4,
			AnaRanks:    2,
			NServers:    2,
			SimPeriod:   4,
			AnaPeriod:   5,
			CoordPeriod: 4,
			Failures: []gospaces.FailAt{
				{Component: "ana", Rank: 0, TS: 8},
				{Component: "sim", Rank: 1, TS: 10},
			},
			Spares: 4,
		})
		if err != nil {
			return err
		}
		verdict := "CONSISTENT"
		if res.CorruptReads > 0 {
			verdict = "CORRUPTED (the paper's motivation)"
		}
		t.Add(scheme.String(), res.Recoveries, res.ReplayedEvents, res.SuppressedPuts, res.CorruptReads, verdict)
	}
	t.Write(os.Stdout)
	return nil
}

// failstop runs a live staging-server fail-stop under the coordinated
// scheme, once per redundancy mode: a server's listener closes for
// good mid-run, the supervisor promotes a warm spare and re-protects
// the staged shards, and every consumer read is still verified byte
// for byte.
func failstop() error {
	t := &expt.Table{
		Title:   "Server fail-stop recovery (live): one staging server lost mid-run",
		Headers: []string{"redundancy", "server recoveries", "epoch", "rebuilds", "rebuilt bytes", "corrupt reads", "verdict"},
	}
	for _, red := range []struct {
		name string
		cfg  gospaces.RedundancyConfig
	}{
		{"replication x3", gospaces.RedundancyConfig{Mode: gospaces.Replication, Replicas: 3}},
		{"erasure RS(2,2)", gospaces.RedundancyConfig{Mode: gospaces.ErasureCoding, K: 2, M: 2}},
	} {
		cfg := red.cfg
		res, err := gospaces.RunWorkflow(gospaces.WorkflowOptions{
			Scheme:      gospaces.Coordinated,
			Steps:       12,
			Global:      gospaces.Box3(0, 0, 0, 63, 63, 31),
			SimRanks:    4,
			AnaRanks:    2,
			NServers:    4,
			SimPeriod:   4,
			AnaPeriod:   5,
			CoordPeriod: 4,
			ServerFailures: []gospaces.ServerFailAt{
				{Server: 1, TS: 6},
			},
			Redundancy: &cfg,
		})
		if err != nil {
			return err
		}
		verdict := "CONSISTENT"
		if res.CorruptReads > 0 {
			verdict = "CORRUPTED"
		}
		if res.ServerRecoveries == 0 {
			verdict = "NO RECOVERY"
		}
		t.Add(red.name, res.ServerRecoveries, res.FinalEpoch, res.Rebuilds,
			expt.MiB(res.RebuildBytes), res.CorruptReads, verdict)
	}
	t.Write(os.Stdout)
	return nil
}

// logrepl runs live staging-server fail-stops under the LOGGED schemes
// with event-log replication on: the supervisor promotes a spare and
// restores the dead server's event queues, payloads, and lock state
// from the freshest replica, so workflow_restart replays byte-exactly
// even though the paper's recovery metadata lived on the dead server.
func logrepl() error {
	t := &expt.Table{
		Title:   "Event-log replication (live): logged schemes surviving staging fail-stop",
		Headers: []string{"scenario", "server recoveries", "epoch", "rollbacks", "replayed", "corrupt reads", "verdict"},
	}
	for _, sc := range []struct {
		name     string
		scheme   gospaces.Scheme
		k        int
		failures []gospaces.ServerFailAt
	}{
		{"uncoordinated K=1", gospaces.Uncoordinated, 1, []gospaces.ServerFailAt{{Server: 1, TS: 6}}},
		{"hybrid K=1", gospaces.Hybrid, 1, []gospaces.ServerFailAt{{Server: 2, TS: 6}}},
		{"uncoordinated K=2, 2 kills", gospaces.Uncoordinated, 2, []gospaces.ServerFailAt{{Server: 1, TS: 4}, {Server: 3, TS: 8}}},
	} {
		res, err := gospaces.RunWorkflow(gospaces.WorkflowOptions{
			Scheme:         sc.scheme,
			Steps:          12,
			Global:         gospaces.Box3(0, 0, 0, 63, 63, 31),
			SimRanks:       4,
			AnaRanks:       2,
			NServers:       4,
			SimPeriod:      4,
			AnaPeriod:      5,
			WlogReplicas:   sc.k,
			ServerFailures: sc.failures,
		})
		if err != nil {
			return err
		}
		verdict := "CONSISTENT"
		if res.CorruptReads > 0 {
			verdict = "CORRUPTED"
		}
		if res.ServerRecoveries != len(sc.failures) {
			verdict = "NO RECOVERY"
		}
		t.Add(sc.name, res.ServerRecoveries, res.FinalEpoch, res.Recoveries,
			res.ReplayedEvents, res.CorruptReads, verdict)
	}
	t.Write(os.Stdout)
	return nil
}

// nemesisExp measures live MTTR for a staging-server fail-stop under
// three redundant supervisors, clean versus with the recovery leader
// killed mid-promotion: the killed-leader case pays roughly one lease
// TTL for the standby takeover, and the journaled intent lets the
// successor finish the same promotion (one spare, one epoch bump).
func nemesisExp() error {
	t := &expt.Table{
		Title:   "Supervisor HA (live): MTTR for a server fail-stop, 3 redundant supervisors",
		Headers: []string{"scenario", "median MTTR", "promotions", "takeovers", "verdict"},
	}
	for _, sc := range []struct {
		name string
		kill bool
	}{
		{"clean recovery (leader survives)", false},
		{"leader killed mid-promotion", true},
	} {
		mttrs := make([]time.Duration, 0, expt.Reps)
		var promotions, takeovers int64
		for rep := 0; rep < expt.Reps; rep++ {
			d, p, tk, err := nemesisMTTR(sc.kill)
			if err != nil {
				return err
			}
			mttrs = append(mttrs, d)
			promotions += p
			takeovers += tk
		}
		sort.Slice(mttrs, func(i, j int) bool { return mttrs[i] < mttrs[j] })
		verdict := "CONSISTENT"
		if promotions != int64(expt.Reps) {
			verdict = fmt.Sprintf("BAD: %d promotions over %d runs", promotions, expt.Reps)
		}
		if sc.kill && takeovers == 0 {
			verdict = "BAD: leader killed but no takeover"
		}
		t.Add(sc.name, mttrs[len(mttrs)/2].Round(time.Millisecond), promotions, takeovers, verdict)
	}
	t.Write(os.Stdout)
	return nil
}

// fastDetector declares a server dead within ~45ms, so the MTTR
// experiments measure promotion, not detection.
var fastDetector = health.Config{
	Period:       5 * time.Millisecond,
	Timeout:      25 * time.Millisecond,
	SuspectAfter: 2,
	DeadAfter:    4,
}

// nemesisMTTR runs one fail-stop and reports the time from the kill to
// every slot alive again, plus promotion/takeover counts summed over
// the redundant supervisors.
func nemesisMTTR(kill bool) (time.Duration, int64, int64, error) {
	tr := transport.NewInProc()
	g, err := staging.StartGroup(tr, "stage", staging.Config{
		Global:       domain.Box3(0, 0, 0, 63, 63, 0),
		NServers:     4,
		Bits:         2,
		ElemSize:     1,
		WlogReplicas: 1,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer g.Close()
	if _, err := g.AddSpare(); err != nil {
		return 0, 0, 0, err
	}

	// Logged traffic so the promotion restores a real replica.
	prod, err := g.NewClient("sim/0")
	if err != nil {
		return 0, 0, 0, err
	}
	defer prod.Close()
	buf := make([]byte, 64*64)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	if err := prod.PutWithLog("field", 1, domain.Box3(0, 0, 0, 63, 63, 0), buf); err != nil {
		return 0, 0, 0, err
	}

	const nSups = 3
	sups := make([]*recovery.Supervisor, nSups)
	var killMu sync.Mutex
	killArmed := kill
	for i := 0; i < nSups; i++ {
		cfg := recovery.Config{
			ID:       fmt.Sprintf("wfbench/sup/%d", i),
			LeaseTTL: 150 * time.Millisecond,
			Detector: fastDetector,
		}
		// Kill at "intent": the promotion is journaled but nothing is
		// mutated yet, so the dead slot stays dark until a standby wins
		// the lease and resumes — the worst-case MTTR path.
		cfg.PromotionHook = func(stage string, slot int) {
			if stage != "intent" || i == nSups-1 {
				return
			}
			killMu.Lock()
			armed := killArmed
			killArmed = false
			killMu.Unlock()
			if armed {
				sups[i].Kill()
			}
		}
		sups[i] = recovery.New(tr, g, cfg)
		sups[i].Start()
		defer sups[i].Close()
	}

	start := time.Now()
	if err := g.FailStop(1); err != nil {
		return 0, 0, 0, err
	}
	// The last supervisor is never killed; its view converges once the
	// promotion (original or resumed) lands.
	if err := sups[nSups-1].WaitIdle(20 * time.Second); err != nil {
		return 0, 0, 0, err
	}
	mttr := time.Since(start)
	var promotions, takeovers int64
	for _, s := range sups {
		promotions += s.Metrics().Counter("recovery.promotions").Value()
		takeovers += s.Metrics().Counter("recovery.takeovers").Value()
	}
	return mttr, promotions, takeovers, nil
}

// table1 prints the user interface of Table I.
func table1() error {
	t := &expt.Table{
		Title:   "Table I: user interface for checkpoint/restart in workflows",
		Headers: []string{"paper API", "gospaces API", "purpose"},
	}
	t.Add("workflow_check()", "Client.WorkflowCheck", "send a checkpoint event to data staging")
	t.Add("workflow_restart()", "Client.WorkflowRestart", "recover the staging client and notify the recovery event")
	t.Add("dspaces_put_with_log()", "Client.PutWithLog", "log data to data staging")
	t.Add("dspaces_get_with_log()", "Client.GetWithLog", "retrieve the logged data specified by geometric descriptor")
	t.Write(os.Stdout)
	return nil
}

func table2() error {
	w := cluster.TableII()
	t := &expt.Table{
		Title:   "Table II: experimental setup for synthetic test cases",
		Headers: []string{"parameter", "value"},
	}
	t.Add("total cores", fmt.Sprintf("%d + %d + %d = %d", w.SimCores, w.AnalyticCores, w.StagingCores, w.TotalCores()))
	t.Add("simulation cores", w.SimCores)
	t.Add("staging cores", w.StagingCores)
	t.Add("analytic cores", w.AnalyticCores)
	t.Add("volume size", fmt.Sprintf("%dx%dx%d", w.Global.Extent(0), w.Global.Extent(1), w.Global.Extent(2)))
	t.Add("data size (40 ts)", expt.MiB(w.BytesPerStep()*int64(w.Steps)))
	t.Add("access pattern", "write immediately followed by read")
	t.Add("coordinated ckpt period (ts)", w.CoordPeriod)
	t.Add("simulation ckpt period (ts)", w.SimPeriod)
	t.Add("analytic ckpt period (ts)", w.AnaPeriod)
	t.Add("MTBF", w.MTBF)
	t.Write(os.Stdout)
	return nil
}

func table3() error {
	t := &expt.Table{
		Title:   "Table III: scalability test configurations",
		Headers: []string{"scale", "total", "sim", "staging", "analytic", "data/40ts", "periods", "MTBF", "failures"},
	}
	for _, w := range cluster.TableIII() {
		t.Add(w.Name, w.TotalCores(), w.SimCores, w.StagingCores, w.AnalyticCores,
			expt.MiB(w.BytesPerStep()*int64(w.Steps)),
			fmt.Sprintf("%d/%d/%d", w.CoordPeriod, w.SimPeriod, w.AnaPeriod),
			w.MTBF, w.NFailures)
	}
	t.Write(os.Stdout)
	return nil
}
