package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gospaces/internal/corec"
	"gospaces/internal/dht"
	"gospaces/internal/domain"
	"gospaces/internal/pfs"
	"gospaces/internal/qos"
	"gospaces/internal/staging"
	"gospaces/internal/synth"
	"gospaces/internal/tier"
	"gospaces/internal/transport"
)

// The coupling pattern of the paper's evaluation: two producer ranks
// split the domain on x and two consumer ranks on y, so every read
// stitches pieces from both producers. Producers checkpoint every 4
// steps and consumers every 5, so one 20-step workflow run holds whole
// checkpoint cycles of both.
const (
	steps     = 20
	simPeriod = 4
	anaPeriod = 5
	elemSize  = 8
	nRanks    = 2
	mib       = 1 << 20
)

// workload is one configuration of the staging stack under the coupling
// loop. Each puts a different set of layers under load.
type workload struct {
	name     string
	why      string
	tcp      bool        // loopback TCP instead of the in-process transport
	servers  int         // staging servers
	global   domain.BBox // the coupled field's domain
	bits     int         // DHT refinement
	replicas int         // wlog replicas per server
	ec       bool        // producer rank 0 erasure-codes each step (corec K=3, M=1)
	// budgetSteps sets each server's memory budget to that many steps'
	// worth of its share of the field (0 = no budget).
	budgetSteps int
	tier        bool  // PFS cold tier under the budget
	qos         bool  // admission control with tenant "sim"
	lag         int64 // consumers read the version this many steps behind
	// Crash points: producer rank 1 crashes after putting each step in
	// simCrash, consumer rank 1 after reading each version in anaCrash.
	// Every point sits three steps past a checkpoint, so every replay
	// has the same length.
	simCrash []int64
	anaCrash []int64
}

var everyCycle = struct{ sim, ana []int64 }{
	sim: []int64{3, 7, 11, 15, 19},
	ana: []int64{3, 8, 13, 18},
}

var workloads = []workload{
	{
		name:    "coupled-inproc",
		why:     "steady-state coupling over the in-process transport: client split/stitch copies and the server wlog/store/GC path dominate",
		servers: 4, global: domain.Box3(0, 0, 0, 127, 127, 63), bits: 2,
		lag: 0,
		// One recovery probe per run, in its last steps, so the restart
		// metrics exist here too; the first 17 steps are crash-free.
		simCrash: []int64{19}, anaCrash: []int64{18},
	},
	{
		name:    "crash-tcp",
		why:     "loopback TCP with wlog replication, an erasure-coded producer and a crash every checkpoint cycle: wire codec, replication, EC and replay",
		tcp:     true,
		servers: 4, global: domain.Box3(0, 0, 0, 127, 127, 31), bits: 2,
		replicas: 1, ec: true,
		simCrash: everyCycle.sim, anaCrash: everyCycle.ana,
	},
	{
		name:    "spill-replay",
		why:     "small memory budget with a PFS cold tier and QoS: spills on put, promote-on-get when a lagging consumer replays",
		servers: 2, global: domain.Box3(0, 0, 0, 63, 63, 31), bits: 2,
		budgetSteps: 6, tier: true, qos: true, lag: 1,
		simCrash: everyCycle.sim, anaCrash: everyCycle.ana,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runResult is what one workflow run measured.
type runResult struct {
	steal      float64 // share of the machine's CPU time stolen during the run
	setup      time.Duration
	workflow   time.Duration // sum of the timed staging phases
	writeResp  time.Duration // cumulative foreground PutWithLog time
	put, get   []time.Duration
	check      []time.Duration
	simRestart []time.Duration
	anaRestart []time.Duration
	memAvg     float64 // MiB, mean over end-of-step samples
	memPeak    float64 // MiB
	replicaAvg float64 // MiB of peer wlog replicas, mean over steps
	verify     time.Duration
	attempted  int64
	// Server-side counters at the end of the run.
	stats    staging.StatsResp
	tierSt   staging.TierStatsResp
	qosSt    staging.QosStatsResp
	tcpGob   int64
	tcpFast  int64
	tcpBytes int64
	ecBytes  int64 // payload bytes handed to corec.Put
	spans    []span
}

// fixture is what every workflow run of one workload and seed shares:
// the field, the rank boxes and the producers' payloads. Every run
// stages the same versions, so each payload is generated once.
type fixture struct {
	w      workload
	name   string
	field  *synth.Field
	simBox [nRanks]domain.BBox
	anaBox [nRanks]domain.BBox
	// payload[v][r] is producer rank r's box of version v, as synth
	// generates it.
	payload map[int64][nRanks][]byte
	gen     time.Duration // time spent making the payloads
	want    []byte        // reused buffer for verification
}

func newFixture(w workload, seed int64) (*fixture, error) {
	fx := &fixture{w: w, name: fmt.Sprintf("sim/field%d", seed), payload: make(map[int64][nRanks][]byte)}
	fx.field = synth.NewField(fx.name, w.global, elemSize)
	simDec, err := domain.NewDecomposition(w.global, []int{nRanks, 1, 1})
	if err != nil {
		return nil, err
	}
	anaDec, err := domain.NewDecomposition(w.global, []int{1, nRanks, 1})
	if err != nil {
		return nil, err
	}
	for i := 0; i < nRanks; i++ {
		if fx.simBox[i], err = simDec.RankBox(i); err != nil {
			return nil, err
		}
		if fx.anaBox[i], err = anaDec.RankBox(i); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

// runner holds one workflow run's live stack.
type runner struct {
	*fixture
	rec   *recorder
	cfg   staging.Config
	group *staging.Group
	tcp   *transport.TCP
	sims  [nRanks]*staging.Client
	anas  [nRanks]*staging.Client
	ec    *corec.Client

	res       *runResult
	attempted atomic.Int64 // operations and checks, from every rank
}

func stepBytes(w workload) int64 { return w.global.Volume() * elemSize }

// newRunner starts the stack; the returned result's setup field times
// group start, tier attach and every rank's dial.
func newRunner(fx *fixture, rec *recorder) (*runner, error) {
	w := fx.w
	r := &runner{fixture: fx, rec: rec, res: &runResult{}}
	var err error
	r.cfg = staging.Config{
		Global: w.global, NServers: w.servers, Bits: w.bits, ElemSize: elemSize,
		WlogReplicas: w.replicas,
	}
	if w.budgetSteps > 0 {
		r.cfg.MemoryBudgetPerServer = int64(w.budgetSteps) * stepBytes(w) / int64(w.servers)
	}
	if w.qos {
		// The quota sits well above the working set: nothing is shed.
		q := qos.Quota{StagingBytes: 4 * r.cfg.MemoryBudgetPerServer, WlogBytes: 4 * r.cfg.MemoryBudgetPerServer, Priority: 2}
		r.cfg.QoS = &qos.Config{Tenants: map[string]qos.Quota{"sim": q}}
	}

	var base transport.Transport
	prefix := "bench"
	if w.tcp {
		r.tcp = transport.NewTCP()
		base, prefix = r.tcp, "127.0.0.1:0"
	} else {
		base = transport.NewInProc()
	}
	rankTr := func(app string) transport.Transport {
		if rec == nil {
			return base
		}
		return &tracedTransport{inner: base, rec: rec, rank: app}
	}

	start := time.Now()
	if w.tier {
		// The in-memory PFS model: a directory on the checkout's disk
		// drifts from run to run (see README.md).
		var be tier.Backend = pfs.NewStore()
		if rec != nil {
			be = &tracedBackend{inner: be, rec: rec}
		}
		r.cfg.TierBackend = func(int) tier.Backend { return be }
	}
	if r.group, err = staging.StartGroup(rankTr(""), prefix, r.cfg); err != nil {
		r.close()
		return nil, err
	}
	dial := func(app string) (*staging.Client, error) {
		pool, err := staging.NewPool(rankTr(app), r.group.Addrs(), r.cfg)
		if err != nil {
			return nil, err
		}
		return pool.NewClient(app)
	}
	for i := 0; i < nRanks; i++ {
		if r.sims[i], err = dial(fmt.Sprintf("sim/%d", i)); err != nil {
			r.close()
			return nil, err
		}
		if r.anas[i], err = dial(fmt.Sprintf("ana/%d", i)); err != nil {
			r.close()
			return nil, err
		}
	}
	if w.ec {
		conns := make([]transport.Client, w.servers)
		for i := range conns {
			conns[i] = r.sims[0].ShardConn(i)
		}
		if r.ec, err = corec.New(corec.Config{Mode: corec.ErasureCoding, K: 3, M: 1}, conns); err != nil {
			r.close()
			return nil, err
		}
	}
	r.res.setup = time.Since(start)
	return r, nil
}

func (r *runner) close() {
	for i := 0; i < nRanks; i++ {
		if r.sims[i] != nil {
			r.sims[i].Close()
		}
		if r.anas[i] != nil {
			r.anas[i].Close()
		}
	}
	if r.group != nil {
		r.group.Close()
	}
}

// op runs one rank API call inside an op span and counts it attempted.
func (r *runner) op(layer, kind, rank string, f func() error) (time.Duration, error) {
	r.attempted.Add(1)
	id := r.rec.begin(layer, kind, rank, "")
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	r.rec.end(id, 0)
	if err != nil {
		return d, fmt.Errorf("%s %s: %w", rank, kind, err)
	}
	return d, nil
}

// parallel runs f for both ranks at once and returns the phase's wall
// time and the first error.
func parallel(f func(i int) error) (time.Duration, error) {
	var wg sync.WaitGroup
	errs := make([]error, nRanks)
	t0 := time.Now()
	for i := 0; i < nRanks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return d, err
		}
	}
	return d, nil
}

// generate makes version v's producer payloads, outside every timed
// span, unless an earlier run of the series already did.
func (r *runner) generate(v int64) {
	if _, ok := r.payload[v]; ok {
		return
	}
	t0 := time.Now()
	var p [nRanks][]byte
	var wg sync.WaitGroup
	for i := 0; i < nRanks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p[i] = r.field.Fill(v, r.simBox[i])
		}(i)
	}
	wg.Wait()
	r.payload[v] = p
	r.gen += time.Since(t0)
}

// check verifies that data is consumer rank i's box of version v,
// byte for byte, against the synth payloads the producers staged.
func (r *runner) check(i int, v int64, data []byte) error {
	r.attempted.Add(1)
	t0 := time.Now()
	defer func() { r.res.verify += time.Since(t0) }()
	p := r.payload[v]
	box := r.anaBox[i]
	if cap(r.want) < len(data) {
		r.want = make([]byte, len(data))
	}
	want := r.want[:len(data)]
	for s := 0; s < nRanks; s++ {
		if region, ok := r.simBox[s].Intersect(box); ok {
			domain.CopyRegion(want, box, p[s], r.simBox[s], region, elemSize)
		}
	}
	if !bytes.Equal(want, data) {
		return fmt.Errorf("verify ana/%d v%d: data differs from synth", i, v)
	}
	return nil
}

// stats sums every server's accounting, read directly from the
// handlers so the probe adds no traffic to the transport under test.
func (r *runner) stats() (staging.StatsResp, error) {
	var agg staging.StatsResp
	for i := 0; i < r.w.servers; i++ {
		raw, err := r.group.Server(i).Handle(staging.StatsReq{})
		if err != nil {
			return agg, err
		}
		st := raw.(staging.StatsResp)
		agg.StoreBytes += st.StoreBytes
		agg.LogMetaBytes += st.LogMetaBytes
		agg.ShardBytes += st.ShardBytes
		agg.SuppressedPuts += st.SuppressedPuts
		agg.ReplayGets += st.ReplayGets
		agg.GCFreedBytes += st.GCFreedBytes
		agg.PutNanos += st.PutNanos
		agg.ReplicaBytes += st.ReplicaBytes
	}
	return agg, nil
}

// pieces is how many put requests the client sends for box: one per
// DHT cell run of each server the box touches.
func pieces(idx *dht.Index, box domain.BBox) int64 {
	var n int64
	for _, s := range idx.ServersFor(box) {
		for _, cell := range idx.ServerCells(s) {
			if _, ok := cell.Intersect(box); ok {
				n++
			}
		}
	}
	return n
}

// run drives one workflow run: steps coupling steps plus the lagging
// consumer's tail, with checkpoints, crashes and their replays.
func (r *runner) run() (*runResult, error) {
	res := r.res
	idx, err := dht.NewIndexCurve(r.cfg.Global, r.cfg.NServers, r.cfg.Bits, r.cfg.Curve)
	if err != nil {
		return res, err
	}
	simChk, anaChk := int64(0), int64(0)
	var memSum, repSum float64
	var samples int
	for t := int64(1); t <= steps+r.w.lag; t++ {
		if t <= steps {
			r.generate(t)
			if err := r.putPhase(t); err != nil {
				return res, err
			}
			if t%simPeriod == 0 {
				if err := r.checkPhase(r.sims); err != nil {
					return res, err
				}
				simChk = t
			}
			if contains(r.w.simCrash, t) {
				if err := r.simRestart(idx, simChk, t); err != nil {
					return res, err
				}
			}
		}
		if v := t - r.w.lag; v >= 1 {
			if err := r.getPhase(v); err != nil {
				return res, err
			}
			if v%anaPeriod == 0 {
				if err := r.checkPhase(r.anas); err != nil {
					return res, err
				}
				anaChk = v
			}
			if contains(r.w.anaCrash, v) {
				if err := r.anaRestart(idx, anaChk, v); err != nil {
					return res, err
				}
			}
		}
		st, err := r.stats()
		if err != nil {
			return res, err
		}
		mem := float64(st.StoreBytes+st.LogMetaBytes+st.ShardBytes) / mib
		memSum += mem
		repSum += float64(st.ReplicaBytes) / mib
		samples++
		res.memPeak = max(res.memPeak, mem)
	}
	res.memAvg = memSum / float64(samples)
	res.replicaAvg = repSum / float64(samples)
	return res, r.finish()
}

func (r *runner) putPhase(t int64) error {
	durs := make([]time.Duration, nRanks)
	wall, err := parallel(func(i int) error {
		app := r.sims[i].App()
		d, err := r.op(layerOp, "PutWithLog", app, func() error {
			return r.sims[i].PutWithLog(r.name, t, r.simBox[i], r.payload[t][i])
		})
		durs[i] = d
		if err != nil || i != 0 || r.ec == nil {
			return err
		}
		key := fmt.Sprintf("ec/%d", t)
		if _, err := r.op(layerCorec, "Put", app, func() error { return r.ec.Put(key, r.payload[t][i]) }); err != nil {
			return err
		}
		if t == 1 {
			return nil
		}
		_, err = r.op(layerCorec, "Drop", app, func() error { return r.ec.Drop(fmt.Sprintf("ec/%d", t-1)) })
		return err
	})
	r.res.workflow += wall
	for _, d := range durs {
		r.res.put = append(r.res.put, d)
		r.res.writeResp += d
	}
	if r.ec != nil {
		r.res.ecBytes += int64(len(r.payload[t][0]))
	}
	return err
}

func (r *runner) getPhase(v int64) error {
	durs := make([]time.Duration, nRanks)
	got := make([][]byte, nRanks)
	wall, err := parallel(func(i int) error {
		d, err := r.op(layerOp, "GetWithLog", r.anas[i].App(), func() error {
			data, ver, err := r.anas[i].GetWithLog(r.name, v, r.anaBox[i])
			if err == nil && ver != v {
				err = fmt.Errorf("resolved v%d", ver)
			}
			got[i] = data
			return err
		})
		durs[i] = d
		return err
	})
	r.res.workflow += wall
	r.res.get = append(r.res.get, durs...)
	if err != nil {
		return err
	}
	for i := 0; i < nRanks; i++ {
		if err := r.check(i, v, got[i]); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) checkPhase(ranks [nRanks]*staging.Client) error {
	durs := make([]time.Duration, nRanks)
	wall, err := parallel(func(i int) error {
		d, err := r.op(layerOp, "WorkflowCheck", ranks[i].App(), func() error {
			_, err := ranks[i].WorkflowCheck()
			return err
		})
		durs[i] = d
		return err
	})
	r.res.workflow += wall
	r.res.check = append(r.res.check, durs...)
	return err
}

// simRestart crashes producer rank 1 after step t and times its
// recovery: workflow_restart from the last checkpoint, then the
// re-issued puts of every step since, which the servers suppress.
func (r *runner) simRestart(idx *dht.Index, chk, t int64) error {
	c, box := r.sims[1], r.simBox[1]
	before, err := r.stats()
	if err != nil {
		return err
	}
	t0 := time.Now()
	_, err = r.op(layerOp, "WorkflowRestartFrom", c.App(), func() error {
		_, err := c.WorkflowRestartFrom(chk)
		return err
	})
	for v := chk + 1; v <= t && err == nil; v++ {
		_, err = r.op(layerOp, "PutWithLog", c.App(), func() error {
			return c.PutWithLog(r.name, v, box, r.payload[v][1])
		})
	}
	d := time.Since(t0)
	r.res.workflow += d
	r.res.simRestart = append(r.res.simRestart, d)
	if err != nil {
		return err
	}
	after, err := r.stats()
	if err != nil {
		return err
	}
	r.attempted.Add(1)
	want := pieces(idx, box) * (t - chk)
	if got := after.SuppressedPuts - before.SuppressedPuts; got != want {
		return fmt.Errorf("sim/1 restart after v%d: %d puts suppressed, want %d", t, got, want)
	}
	return nil
}

// anaRestart crashes consumer rank 1 after reading version v and times
// its recovery: workflow_restart from the last checkpoint, then the
// replayed gets of every version since, each served from the log.
func (r *runner) anaRestart(idx *dht.Index, chk, v int64) error {
	c, box := r.anas[1], r.anaBox[1]
	before, err := r.stats()
	if err != nil {
		return err
	}
	var got [][]byte
	t0 := time.Now()
	_, err = r.op(layerOp, "WorkflowRestartFrom", c.App(), func() error {
		_, err := c.WorkflowRestartFrom(chk)
		return err
	})
	for u := chk + 1; u <= v && err == nil; u++ {
		_, err = r.op(layerOp, "GetWithLog", c.App(), func() error {
			data, ver, err := c.GetWithLog(r.name, u, box)
			if err == nil && ver != u {
				err = fmt.Errorf("replay resolved v%d, want v%d", ver, u)
			}
			got = append(got, data)
			return err
		})
	}
	d := time.Since(t0)
	r.res.workflow += d
	r.res.anaRestart = append(r.res.anaRestart, d)
	if err != nil {
		return err
	}
	for k, data := range got {
		if err := r.check(1, chk+1+int64(k), data); err != nil {
			return err
		}
	}
	after, err := r.stats()
	if err != nil {
		return err
	}
	r.attempted.Add(1)
	want := int64(len(idx.ServersFor(box))) * (v - chk)
	if n := after.ReplayGets - before.ReplayGets; n != want {
		return fmt.Errorf("ana/1 restart after v%d: %d gets replayed, want %d", v, n, want)
	}
	return nil
}

// finish reads the servers' end-of-run counters and runs the end-of-run
// checks: a tier scrub finds nothing lost or healed, and QoS shed
// nothing.
func (r *runner) finish() error {
	res := r.res
	var err error
	if res.stats, err = r.stats(); err != nil {
		return err
	}
	for i := 0; i < r.w.servers; i++ {
		srv := r.group.Server(i)
		raw, err := srv.Handle(staging.TierStatsReq{})
		if err != nil {
			return err
		}
		ts := raw.(staging.TierStatsResp)
		res.tierSt.Spills += ts.Spills
		res.tierSt.SpillBytes += ts.SpillBytes
		res.tierSt.Promotes += ts.Promotes
		raw, err = srv.Handle(staging.QosStatsReq{})
		if err != nil {
			return err
		}
		qs := raw.(staging.QosStatsResp)
		res.qosSt.Admits += qs.Admits
		res.qosSt.Sheds += qs.Sheds
		if r.w.tier {
			r.attempted.Add(1)
			raw, err = srv.Handle(staging.TierScrubReq{})
			if err != nil {
				return err
			}
			sc := raw.(staging.TierScrubResp)
			if sc.Lost != 0 || sc.Healed != 0 || sc.Degraded {
				return fmt.Errorf("server %d tier scrub: lost=%d healed=%d degraded=%v", i, sc.Lost, sc.Healed, sc.Degraded)
			}
		}
	}
	if r.w.qos {
		r.attempted.Add(1)
		if res.qosSt.Sheds != 0 {
			return fmt.Errorf("qos shed %d requests", res.qosSt.Sheds)
		}
	}
	if r.tcp != nil {
		m := r.tcp.Metrics()
		res.tcpGob = m.Counter("codec.gob_payloads").Value()
		res.tcpFast = m.Counter("codec.fastpath_hits").Value()
		res.tcpBytes = m.Counter("transport.bytes_out").Value()
	}
	if r.rec != nil {
		res.spans = r.rec.take()
	}
	return nil
}

func contains(a []int64, v int64) bool {
	for _, x := range a {
		if x == v {
			return true
		}
	}
	return false
}

// runOnce starts a stack, drives one workflow run over it and tears it
// down.
func runOnce(fx *fixture, rec *recorder) (*runResult, error) {
	// Start every run from a collected heap, so the previous run's
	// garbage does not land its collection inside this run's phases.
	runtime.GC()
	total0, steal0 := cpuTicks()
	r, err := newRunner(fx, rec)
	if err != nil {
		return nil, err
	}
	defer r.close()
	res, err := r.run()
	res.attempted = r.attempted.Load()
	if total1, steal1 := cpuTicks(); total1 > total0 {
		res.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	return res, err
}
