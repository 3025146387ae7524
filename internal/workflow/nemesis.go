package workflow

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gospaces/internal/failure"
	"gospaces/internal/health"
	"gospaces/internal/qos"
	"gospaces/internal/recovery"
	"gospaces/internal/staging"
	"gospaces/internal/wlog"
)

// NemesisOptions configures one seeded nemesis soak: a staging group
// with redundant recovery supervisors, a logged producer/consumer data
// path, and a nemesis concurrently killing staging servers and
// supervisors on a randomized schedule while the standing invariants
// are checked.
type NemesisOptions struct {
	// Seed drives every random choice; a given seed replays the same run.
	Seed int64
	// Servers is the staging-group size (default 4).
	Servers int
	// Spares is the warm-spare pool size (default 2).
	Spares int
	// Supervisors is the redundant supervisor count (default 3). The
	// last supervisor is never nemesis-killed, so the group can always
	// heal.
	Supervisors int
	// Steps is the number of logged versions the producer writes
	// (default 8).
	Steps int
	// Deaths is how many staging servers fail-stop permanently, capped
	// at Spares (default 1).
	Deaths int
	// Kills is how many leader supervisors the nemesis kills
	// mid-promotion (default 1; capped at Supervisors-1).
	Kills int
	// KillStage picks the promotion stage the leader dies at: "intent",
	// "restored", "replaced", or "pushed". "stall" stalls the leader
	// instead of killing it, long enough to be deposed, so its resumed
	// stale calls demonstrate server-side fencing. Empty rotates by
	// seed.
	KillStage string
	// SpareDelay starts the pool empty and refills it only after the
	// first death has been confirmed unrecoverable (recovery.no_spare),
	// exercising the dead-slot backlog heal.
	SpareDelay bool
	// Chaos draws that many seeded transient server blackouts and
	// supervisor kills on top of the deterministic deaths.
	Chaos int
	// Overload draws that many seeded tenant-overload windows: during
	// each window a quota'd low-priority tenant floods the group with
	// puts.
	// The group runs with the admission layer (internal/qos) enabled, so
	// the soak asserts recovery and the logged data path survive while
	// the flood is shed.
	Overload int
	// Tier gives every server and spare a PFS cold tier plus a memory
	// budget of ~4 versions, so the producer's logged history spills and
	// replay reads promote spilled versions back.
	Tier bool
	// StorageFaults draws that many seeded PFS faults — torn/partial
	// writes at random offsets, at-rest bit rot, ENOSPC, slow I/O — and
	// arms them against the servers' tier backends while the soak runs.
	// Requires Tier.
	StorageFaults int
}

// NemesisResult is the observable outcome a soak test asserts on.
type NemesisResult struct {
	Deaths          int    // staging servers permanently killed
	Promotions      int64  // membership writes performed, summed across supervisors
	SparesConsumed  int    // spares permanently drawn from the pool
	Takeovers       int64  // elections that found journaled intents to resume
	IntentResumes   int64  // promotions resumed from a deposed leader's journal
	SpareReturns    int64  // failed promotions that refunded the pool
	DeadRetries     int64  // backlogged slots healed by a late AddSpare
	Elections       int64  // lease grants, summed across supervisors
	SupFenced       int64  // supervisor-observed fencing rejections
	ServerFenced    int64  // server-side fenced-call rejections
	Leaders         int    // supervisors holding the lease at the end
	ReplayEvents    int    // events replayed through the restored logs
	ReplayDiverged  bool   // any re-issued write diverged from the event log
	Epoch           uint64 // final membership epoch
	DownObserved    bool   // a client saw ErrSlotDown while the slot was stranded
	OverloadWindows int    // tenant-overload windows armed from the schedule
	FloodPuts       int64  // puts the flood tenant attempted during those windows
	FloodSheds      int64  // flood puts rejected with a typed qos overload
	StorageArmed    int64  // PFS faults armed from the storage schedule
	TierSpills      int64  // versions demoted to the cold tier, summed across servers
	TierPromotes    int64  // spilled versions promoted back by replay reads
	ScrubChecked    int64  // spilled generations checked by the post-soak scrub
	ScrubHealed     int64  // corrupt generations re-replicated from the twin
	ScrubLost       int64  // entries lost to double corruption (must stay 0)
	TierDegraded    bool   // any tier still degraded after the post-soak scrub
}

var nemesisStages = []string{"intent", "restored", "replaced", "pushed"}

func (o *NemesisOptions) defaults() {
	if o.Servers <= 0 {
		o.Servers = 4
	}
	if o.Spares <= 0 {
		o.Spares = 2
	}
	if o.Supervisors <= 0 {
		o.Supervisors = 3
	}
	if o.Steps <= 0 {
		o.Steps = 8
	}
	if o.Deaths <= 0 {
		o.Deaths = 1
	}
	if o.Deaths > o.Spares {
		o.Deaths = o.Spares
	}
	if o.Kills <= 0 {
		o.Kills = 1
	}
	if o.Kills >= o.Supervisors {
		o.Kills = o.Supervisors - 1
	}
	if o.KillStage == "" {
		o.KillStage = nemesisStages[int(o.Seed%int64(len(nemesisStages))+int64(len(nemesisStages)))%len(nemesisStages)]
	}
}

// nemesisPayload is the deterministic byte pattern for one version, so
// every read is verifiable byte-exactly without remembering writes.
func nemesisPayload(version, n int64) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(int64(i)*7 + version*131 + 1)
	}
	return data
}

// RunNemesis executes one seeded nemesis soak and returns the
// measured outcome; assertion lives in the caller. The run is
// deterministic up to goroutine scheduling: all fault choices derive
// from the seed.
func RunNemesis(o NemesisOptions) (NemesisResult, error) {
	o.defaults()
	rng := rand.New(rand.NewSource(o.Seed))
	var res NemesisResult

	global := soakGlobal()
	spares := o.Spares
	if o.SpareDelay {
		spares = 0
	}
	var tierBudget int64
	if o.Tier {
		// A budget of ~4 versions forces the older logged history to
		// spill; replay reads then promote it back. Spares get their own
		// (reset-on-promotion) tiers.
		tierBudget = 4 * global.Volume()
	}
	f, err := newFaultGroup(fmt.Sprintf("nemesis/%d", o.Seed), o.Seed, o.Servers, spares, o.Overload > 0, tierBudget)
	if err != nil {
		return res, err
	}
	group := f.group
	defer group.Close()

	// Redundant supervisors with fast detectors; the lease TTL is a few
	// detection windows so a takeover lands quickly enough for a short
	// soak.
	const leaseTTL = 150 * time.Millisecond
	sups := make([]*recovery.Supervisor, o.Supervisors)
	killed := make([]bool, o.Supervisors)
	var killMu sync.Mutex
	killsLeft := o.Kills
	for i := 0; i < o.Supervisors; i++ {
		cfg := recovery.Config{
			ID:       fmt.Sprintf("nemesis/sup/%d", i),
			LeaseTTL: leaseTTL,
			Detector: health.Config{
				Period:       5 * time.Millisecond,
				Timeout:      25 * time.Millisecond,
				SuspectAfter: 2,
				DeadAfter:    4,
			},
		}
		cfg.PromotionHook = func(stage string, slot int) {
			if stage != o.KillStage && o.KillStage != "stall" {
				return
			}
			killMu.Lock()
			if killsLeft <= 0 || i == o.Supervisors-1 {
				killMu.Unlock()
				return
			}
			if o.KillStage == "stall" && stage != "replaced" {
				killMu.Unlock()
				return
			}
			killsLeft--
			if o.KillStage != "stall" {
				killed[i] = true
			}
			killMu.Unlock()
			if o.KillStage == "stall" {
				// Stall past the lease: a standby is elected and finishes
				// the promotion; when this leader resumes, its next fenced
				// call (the view push) is rejected server-side.
				time.Sleep(3 * leaseTTL)
				return
			}
			sups[i].Kill()
		}
		sups[i] = recovery.New(f.tr, group, cfg)
		sups[i].Start()
		defer sups[i].Close()
	}

	// One seeded fault schedule riding on top of the deterministic
	// deaths (permanent fail-stops stay deterministic, bounded by the
	// spare pool), one Draw per enabled family: transient blackouts and
	// supervisor kills within the kill budget (the last supervisor is
	// never a target), storage faults against the cold tiers, and
	// tenant-overload windows. Storage faults find no backend to bite
	// without Tier.
	var sched failure.Schedule
	for _, fam := range []struct {
		seed  int64
		n     int
		kinds []failure.Kind
	}{
		{o.Seed, o.Chaos, []failure.Kind{failure.ServerCrash, failure.SupervisorKill}},
		{o.Seed + 1, o.StorageFaults, []failure.Kind{failure.PFSTornWrite, failure.PFSPartialWrite, failure.PFSBitRot, failure.PFSENOSPC, failure.PFSSlowIO}},
		{o.Seed, o.Overload, []failure.Kind{failure.TenantOverload}},
	} {
		if fam.n <= 0 {
			continue
		}
		s, err := failure.Draw(fam.seed, failure.Plan{
			N: fam.n, Kinds: fam.kinds, Horizon: 300 * time.Millisecond, MeanFault: 40 * time.Millisecond,
			Servers: o.Servers, Supervisors: o.Supervisors - 1,
		})
		if err != nil {
			return res, err
		}
		sched = append(sched, s...)
	}

	// Overload windows flood the group with a low-priority tenant while
	// the deaths land between producer versions. Each window runs its
	// own client so overlapping windows never share a connection;
	// errors are expected — the typed overload rejections are the
	// admission layer doing its job and are counted, everything else
	// (dead slots mid-promotion) is ignored. Storage faults all run
	// while servers die and the flood sheds.
	var floodWG sync.WaitGroup
	var floodPuts, floodSheds, floodSeq, storageArmed atomic.Int64
	flood := func(d time.Duration) {
		defer floodWG.Done()
		cl, err := group.NewClient("nemesis/flood")
		if err != nil {
			return
		}
		defer cl.Close()
		for end := time.Now().Add(d); time.Now().Before(end); {
			n := floodSeq.Add(1)
			floodPuts.Add(1)
			err := cl.Put(fmt.Sprintf("flood/f%d", n), 1, global, nemesisPayload(n, global.Volume()))
			if _, ok := qos.FromError(err); ok {
				floodSheds.Add(1)
			}
		}
	}
	start := time.Now()
	for _, inj := range failure.Fixed(sched...) {
		var fire func()
		switch inj.Kind {
		case failure.ServerCrash:
			fire = func() { f.blackout(inj.Server, inj.Duration) }
		case failure.SupervisorKill:
			fire = func() {
				killMu.Lock()
				ok := killsLeft > 0 && !killed[inj.Server]
				if ok {
					killsLeft--
					killed[inj.Server] = true
				}
				killMu.Unlock()
				if ok {
					sups[inj.Server].Kill()
				}
			}
		case failure.TenantOverload:
			res.OverloadWindows++
			floodWG.Add(1)
			fire = func() { flood(inj.Duration) }
		default:
			fire = func() {
				if f.tierFault(inj.Server, inj.Kind, inj.Offset, inj.Duration) {
					storageArmed.Add(1)
				}
			}
		}
		time.AfterFunc(inj.At-time.Since(start), fire)
	}

	// Spare-exhaustion heal: the pool starts empty, so the death strands
	// its slot (recovery.no_spare fires, clients see ErrSlotDown); a
	// concurrent late refill lets the backlog sweep promote. It must run
	// alongside the producer — writes touching the stranded slot cannot
	// finish until the pool refills.
	spareErr := make(chan error, 1)
	if o.SpareDelay {
		go func() {
			if err := waitCounter(sups, "recovery.no_spare", 10*time.Second); err != nil {
				spareErr <- err
				return
			}
			time.Sleep(150 * time.Millisecond) // hold the stranding window open
			for i := 0; i < o.Spares; i++ {
				if _, err := group.AddSpare(); err != nil {
					spareErr <- err
					return
				}
			}
			spareErr <- nil
		}()
	} else {
		spareErr <- nil
	}

	prod, err := group.NewClient("nemesis/prod")
	if err != nil {
		return res, err
	}
	defer prod.Close()
	cons, err := group.NewClient("nemesis/cons")
	if err != nil {
		return res, err
	}
	defer cons.Close()
	put := func(v int) error {
		data := nemesisPayload(int64(v), global.Volume())
		return nemesisRetry(10*time.Second, &res, func() error {
			err := prod.PutWithLog("nemesis/field", int64(v), global, data)
			if errors.Is(err, wlog.ErrReplayDivergence) {
				res.ReplayDiverged = true
				return nil
			}
			if err != nil {
				prod.Reconnect()
			}
			return err
		})
	}
	readBack := func(v int) error {
		return nemesisRetry(10*time.Second, &res, func() error {
			got, _, err := cons.GetWithLog("nemesis/field", int64(v), global)
			if err != nil {
				cons.Reconnect()
				return err
			}
			if !bytes.Equal(got, nemesisPayload(int64(v), global.Volume())) {
				return fmt.Errorf("nemesis: version %d read back %d bytes, mismatch", v, len(got))
			}
			return nil
		})
	}

	// Producer phase: logged writes spread over the fault window, with
	// the deaths injected between versions. Writes retry through
	// degraded staging exactly like workflow ranks do.
	deathAt := make(map[int]int) // version index -> slot
	deadOrder := rng.Perm(o.Servers)
	for d := 0; d < o.Deaths; d++ {
		v := 2 + d*(o.Steps-3)/max(1, o.Deaths)
		deathAt[v] = deadOrder[d]
	}
	for v := 1; v <= o.Steps; v++ {
		if slot, ok := deathAt[v]; ok {
			if err := group.FailStop(slot); err != nil {
				return res, err
			}
			res.Deaths++
		}
		if err := put(v); err != nil {
			return res, fmt.Errorf("put v%d: %w", v, err)
		}
		if v == 1 {
			// Put the consumer's read of v1 on record right away: GC keeps
			// every logged version at or above the payload frontier of a
			// name some component has read, but a name nobody has read
			// has no frontier, so budget pressure could collect unread
			// history before the consumer phase gets to it.
			if err := readBack(1); err != nil {
				return res, err
			}
		}
		time.Sleep(time.Duration(rng.Intn(8)) * time.Millisecond)
	}

	if err := <-spareErr; err != nil {
		return res, err
	}

	// Heal phase: a never-killed supervisor drains the backlog.
	survivor := sups[o.Supervisors-1]
	if err := survivor.WaitIdle(20 * time.Second); err != nil {
		return res, err
	}

	// Consumer phase: every version reads back byte-exactly through the
	// (possibly restored) logs.
	for v := 1; v <= o.Steps; v++ {
		if err := readBack(v); err != nil {
			return res, err
		}
	}

	// Replay phase: the producer restarts and re-issues every logged
	// write; the servers must suppress them all byte-exactly — any
	// divergence from the restored log is the torn-recovery failure the
	// whole design exists to prevent.
	replayed, err := prod.WorkflowRestart()
	if err != nil {
		return res, err
	}
	res.ReplayEvents = replayed
	for v := 1; v <= o.Steps; v++ {
		if err := put(v); err != nil {
			return res, fmt.Errorf("replay v%d: %w", v, err)
		}
	}

	// Drain any overload window still flooding past the data phases.
	floodWG.Wait()
	res.FloodPuts = floodPuts.Load()
	res.FloodSheds = floodSheds.Load()
	res.StorageArmed = storageArmed.Load()

	// Post-soak tier audit: disarm any fault still pending (the soak is
	// over; a live one-shot would sabotage the scrub's healing writes),
	// then scrub every reachable server's tier. Everything the storage
	// nemesis corrupted must surface here as detected-and-healed; a lost
	// entry would mean both generations rotted (the schedule never does
	// that) and an undetected one would already have failed the
	// byte-exact read/replay phases above.
	if o.Tier {
		f.disarmTiers()
		for _, addr := range group.Addrs() {
			conn, err := f.tr.Dial(addr)
			if err != nil {
				continue // a dead slot's original address
			}
			if raw, err := conn.Call(staging.TierScrubReq{}); err == nil {
				if sc, ok := raw.(staging.TierScrubResp); ok && sc.Enabled {
					res.ScrubChecked += sc.Checked
					res.ScrubHealed += sc.Healed
					res.ScrubLost += sc.Lost
					if sc.Degraded {
						res.TierDegraded = true
					}
				}
			}
			if raw, err := conn.Call(staging.TierStatsReq{}); err == nil {
				if st, ok := raw.(staging.TierStatsResp); ok && st.Enabled {
					res.TierSpills += st.Spills
					res.TierPromotes += st.Promotes
				}
			}
			conn.Close()
		}
	}

	// Settle: the lease must converge on exactly one holder — a leader
	// killed at the tail of a promotion leaves takeover (and the
	// journaled-intent cleanup) to a successor elected after the data
	// phases already finished — and a stalled leader must wake, fire its
	// stale fenced calls, and observe its deposition before the
	// single-holder invariant is judged.
	var leader *recovery.Supervisor
	settle := time.Now().Add(8 * time.Second)
	for {
		leaders := 0
		var fenced int64
		leader = nil
		for _, sup := range sups {
			if sup.IsLeader() {
				leaders++
				leader = sup
			}
			fenced += sup.Metrics().Counter("recovery.fenced_rejects").Value()
		}
		if leaders == 1 && (o.KillStage != "stall" || fenced > 0) {
			break
		}
		if time.Now().After(settle) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leader != nil {
		// Let a freshly elected leader finish any promotion it resumed
		// from the journal.
		if err := leader.WaitIdle(10 * time.Second); err != nil {
			return res, err
		}
	}

	// Harvest: metrics, lease state, server-side fencing stats.
	for _, sup := range sups {
		m := sup.Metrics()
		res.Promotions += m.Counter("recovery.promotions").Value()
		res.Takeovers += m.Counter("recovery.takeovers").Value()
		res.IntentResumes += m.Counter("recovery.intent_resumes").Value()
		res.SpareReturns += m.Counter("recovery.spare_returns").Value()
		res.DeadRetries += m.Counter("recovery.dead_retries").Value()
		res.Elections += m.Counter("recovery.elections").Value()
		res.SupFenced += m.Counter("recovery.fenced_rejects").Value()
		if sup.IsLeader() {
			res.Leaders++
		}
	}
	res.SparesConsumed = group.SparesConsumed()
	res.Epoch = group.Membership().Epoch()
	stats, err := cons.Stats()
	if err != nil {
		return res, err
	}
	res.ServerFenced = stats.FencedRejects
	return res, nil
}

// nemesisRetry retries fn until it succeeds or the deadline passes,
// recording whether a stranded slot was observed en route. Any error is
// retryable during a soak: degraded staging, stale epochs, blackouts,
// and promotions in flight all heal.
func nemesisRetry(timeout time.Duration, res *NemesisResult, fn func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := fn()
		if err == nil {
			return nil
		}
		if errors.Is(err, staging.ErrSlotDown) {
			res.DownObserved = true
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitCounter blocks until any supervisor's named counter goes
// positive.
func waitCounter(sups []*recovery.Supervisor, name string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		for _, sup := range sups {
			if sup.Metrics().Counter(name).Value() > 0 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("nemesis: counter %s stayed zero for %v", name, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
