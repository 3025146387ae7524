package workflow

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"gospaces/internal/failure"
	"gospaces/internal/health"
	"gospaces/internal/qos"
	"gospaces/internal/recovery"
	"gospaces/internal/staging"
	"gospaces/internal/trace"
	"gospaces/internal/wlog"
)

// This file is the churn-soak composition behind `wfbench -exp soak`:
// a recorded multi-group workload (producer/consumer pairs bracketing
// logged puts/gets with the paper's lock API, checkpointing and
// restarting mid-run) interleaved with a seeded fault schedule
// (fail-stops, blackouts, tier storage faults, tenant floods), the
// whole thing expressed as a trace.Event schedule positioned on a
// logical clock. Because the schedule — including every payload seed
// and every expected get digest — is generated deterministically from
// the seed BEFORE execution, recording and replaying are the same
// operation: executing the schedule. A failing run's trace file
// therefore reproduces the failure deterministically under `go test`,
// which is what turns soak failures into checked-in regression tests.

// SoakOptions configures one seeded churn soak.
type SoakOptions struct {
	// Seed drives the workload interleaving, payload contents, and the
	// fault schedule; a given seed always builds the same trace.
	Seed int64
	// Groups is the number of producer/consumer pairs (default 2).
	Groups int
	// Steps is the number of logged versions each producer writes
	// (default 5).
	Steps int
	// Servers is the staging-group size (default 4).
	Servers int
	// Spares is the warm-spare pool (default 2); it bounds how many
	// fail-stops the fault schedule may carry.
	Spares int
	// Faults is the number of injected faults (0 = clean run). Faults
	// never target slot 0: the lock table lives there and retried lock
	// RPCs use fresh dedup sequences, so faulting it would make replay
	// outcomes ambiguous.
	Faults int
	// Tier gives every server a PFS cold tier and a ~4-version memory
	// budget, so history spills and sweep reads promote it back; the
	// fault mix gains storage faults.
	Tier bool
	// Overload enables admission control with a small flood-tenant
	// quota; the fault mix gains flood bursts that must shed without
	// disturbing the workload.
	Overload bool
	// Label names the trace for humans; defaults to "soak seed=N".
	Label string
}

func (o *SoakOptions) defaults() {
	if o.Groups <= 0 {
		o.Groups = 2
	}
	if o.Steps <= 0 {
		o.Steps = 5
	}
	if o.Servers <= 0 {
		o.Servers = 4
	}
	if o.Spares <= 0 {
		o.Spares = 2
	}
	if o.Label == "" {
		o.Label = fmt.Sprintf("soak seed=%d", o.Seed)
	}
}

// SoakResult is the observable outcome of executing a soak trace.
type SoakResult struct {
	Events     int    // replayable events applied
	Puts       int    // workload puts issued (excluding restarts' re-puts)
	Gets       int    // checked gets (workload + sweep)
	Digest     uint64 // ordered fold of every checked get's payload sum
	StateSum   uint64 // content fingerprint of the final staging state (sweep)
	Restarts   int    // workflow_restart events executed
	Replayed   int    // wlog events replayed by those restarts
	FailStops  int    // servers permanently killed
	Blackouts  int    // transient blackout windows armed
	TierFaults int    // storage faults armed on cold tiers
	FloodPuts  int64  // flood-tenant puts attempted
	FloodSheds int64  // flood puts rejected with a typed overload
	Retries    int64  // workload operations that needed at least one retry
}

// soakPayload generates the deterministic byte pattern for one put: a
// splitmix64 stream keyed by the recorded seed, so the trace carries
// 16 bytes per put instead of the payload and still replays
// byte-exactly.
func soakPayload(seed, n int64) []byte {
	data := make([]byte, n)
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	var word uint64
	for i := range data {
		if i%8 == 0 {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			word = z ^ (z >> 31)
		}
		data[i] = byte(word >> (8 * (i % 8)))
	}
	return data
}

// payloadSum digests one payload (FNV-1a), the per-get check value
// recorded in the trace.
func payloadSum(data []byte) uint64 {
	s := uint64(1469598103934665603)
	for _, c := range data {
		s ^= uint64(c)
		s *= 1099511628211
	}
	return s
}

// foldDigest mixes one get's payload sum into the ordered digest
// accumulator (same mixer as the workflow ranks' result digest).
func foldDigest(acc, sum uint64) uint64 {
	x := acc ^ sum
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func soakPutSeed(base int64, g, v int) int64 {
	return base ^ (int64(g+1) << 40) ^ int64(v)*2654435761
}

func soakField(g int) string { return fmt.Sprintf("soak/g%d/field", g) }
func soakLock(g int) string  { return fmt.Sprintf("soak/lk/%d", g) }
func soakProd(g int) string  { return fmt.Sprintf("soak/prod/%d", g) }
func soakCons(g int) string  { return fmt.Sprintf("soak/cons/%d", g) }
func soakSweep() string      { return "soak/sweep" }
func soakFloodApp() string   { return "soak/flood" }

// BuildSoakTrace generates the complete recorded schedule for one
// seeded soak: the multi-group workload, the fault injections at their
// logical-clock positions, the final sweep, and the expected digest.
func BuildSoakTrace(o SoakOptions) (trace.Header, []trace.Event, error) {
	o.defaults()
	global := soakGlobal()
	vol := global.Volume()
	h := trace.Header{
		Version: trace.FormatVersion,
		Label:   o.Label,
		Seed:    o.Seed,
		Servers: o.Servers, Spares: o.Spares,
		Bits: 2, ElemSize: 1, Replicas: 2,
		DimX: 64, DimY: 64, DimZ: 1,
		Groups: o.Groups, Steps: o.Steps,
	}
	if o.Faults > 0 {
		h.Flags |= trace.FlagFaults
	}
	if o.Tier {
		h.Flags |= trace.FlagTier
		h.MemBudget = 4 * vol
	}
	if o.Overload {
		h.Flags |= trace.FlagOverload
	}

	rng := rand.New(rand.NewSource(o.Seed))

	// Per-put payload sums, computed up front so gets carry their
	// expected digest in the trace.
	sums := make([][]uint64, o.Groups)
	for g := range sums {
		sums[g] = make([]uint64, o.Steps+1)
		for v := 1; v <= o.Steps; v++ {
			sums[g][v] = payloadSum(soakPayload(soakPutSeed(o.Seed, g, v), vol))
		}
	}

	// Each group restarts its producer once, after a seeded put count.
	restartAfter := make([]int, o.Groups)
	for g := range restartAfter {
		if o.Steps >= 3 {
			restartAfter[g] = 2 + rng.Intn(o.Steps-2)
		}
	}

	// Workload segments: lock-bracketed put and get triples, checkpoint
	// and restart events riding after producers' puts. Segments are the
	// unit the fault schedule indexes (faults land between segments,
	// never inside a lock bracket — a single-threaded executor holding
	// a blocking lock across a fault would deadlock the schedule).
	type segment []trace.Event
	var segments []segment
	puts := make([]int, o.Groups)
	gets := make([]int, o.Groups)
	for {
		var ready []int
		for g := 0; g < o.Groups; g++ {
			if puts[g] < o.Steps || gets[g] < puts[g] {
				ready = append(ready, g)
			}
		}
		if len(ready) == 0 {
			break
		}
		g := ready[rng.Intn(len(ready))]
		doGet := gets[g] < puts[g] && (puts[g] == o.Steps || rng.Intn(2) == 0)
		if doGet {
			v := gets[g] + 1
			gets[g] = v
			segments = append(segments, segment{
				{Kind: trace.EvRLock, App: soakCons(g), Name: soakLock(g)},
				{Kind: trace.EvGet, App: soakCons(g), Name: soakField(g), Version: int64(v), Bytes: vol, Sum: sums[g][v], Logged: true},
				{Kind: trace.EvRUnlock, App: soakCons(g), Name: soakLock(g)},
			})
			continue
		}
		v := puts[g] + 1
		puts[g] = v
		seg := segment{
			{Kind: trace.EvLock, App: soakProd(g), Name: soakLock(g)},
			{Kind: trace.EvPut, App: soakProd(g), Name: soakField(g), Version: int64(v), Bytes: vol, Seed: soakPutSeed(o.Seed, g, v), Logged: true},
			{Kind: trace.EvUnlock, App: soakProd(g), Name: soakLock(g)},
		}
		// A checkpoint before the consumer's first logged get would let
		// keep-latest GC drop the old versions (PayloadFrontier is
		// MaxInt64 for an object nobody has read); after that first get
		// the consumer's resident Get event pins the frontier at v1
		// forever, since consumers never checkpoint. So checkpoints only
		// ride behind segments where the reader is already on record.
		if v%3 == 0 && gets[g] > 0 {
			seg = append(seg, trace.Event{Kind: trace.EvCheckpoint, App: soakProd(g)})
		}
		if v == restartAfter[g] {
			seg = append(seg, trace.Event{Kind: trace.EvRestart, App: soakProd(g)})
		}
		segments = append(segments, seg)
	}

	// Fault schedule on the segment clock. Fail-stops are capped by the
	// spare pool; excess draws soften to blackouts.
	byOp := map[int][]trace.Event{}
	if o.Faults > 0 {
		kinds := []failure.Kind{failure.ServerFailStop, failure.ServerCrash}
		if o.Tier {
			// Permanent fail-stops don't compose with private cold
			// tiers: a spare promotes with a fresh tier, so versions the
			// dead server had spilled (and nobody had logged a read for)
			// are unrecoverable — the same reason the nemesis tier runs
			// use storage faults and blackouts only. Tier'd soaks keep
			// servers alive and torture the storage instead.
			kinds = []failure.Kind{failure.ServerCrash,
				failure.PFSTornWrite, failure.PFSPartialWrite, failure.PFSENOSPC, failure.PFSSlowIO}
		}
		if o.Overload {
			kinds = append(kinds, failure.TenantOverload)
		}
		sched, err := failure.Draw(o.Seed+1, failure.Plan{
			N: o.Faults, Kinds: kinds, HorizonOps: len(segments),
			MeanFault: 40 * time.Millisecond, Servers: o.Servers, FirstServer: 1,
		})
		if err != nil {
			return h, nil, err
		}
		failStops := 0
		for _, inj := range sched {
			ev, ok := churnEvent(inj, &failStops, o.Spares)
			if ok {
				byOp[inj.AtOp] = append(byOp[inj.AtOp], ev)
			}
		}
	}

	var events []trace.Event
	emit := func(e trace.Event) {
		e.LC = uint64(len(events))
		events = append(events, e)
	}
	var digest uint64
	for i, seg := range segments {
		for _, f := range byOp[i] {
			emit(f)
		}
		for _, e := range seg {
			if e.Kind == trace.EvGet {
				digest = foldDigest(digest, e.Sum)
			}
			emit(e)
		}
	}
	// Final sweep: every version of every group must still read back
	// byte-exactly through whatever recovered/spilled/shed state the
	// churn left behind. Unlogged gets — the sweep is an audit, not a
	// workload participant, so it must not grow any replay queue.
	for g := 0; g < o.Groups; g++ {
		for v := 1; v <= o.Steps; v++ {
			e := trace.Event{Kind: trace.EvGet, App: soakSweep(), Name: soakField(g), Version: int64(v), Bytes: vol, Sum: sums[g][v]}
			digest = foldDigest(digest, e.Sum)
			emit(e)
		}
	}
	h.Digest = digest
	return h, events, nil
}

// BuildRegressionTrace builds one of the named crash-consistency
// scenarios persisted under testdata/: a clean seeded workload with
// faults inserted at hand-picked logical-clock positions so the trace
// exercises one specific recovery path. Unlike Draw-scheduled soaks, the
// fault placement here is part of the scenario's identity — a fail-stop
// immediately before a restart IS kill-mid-replay.
func BuildRegressionTrace(kind string) (trace.Header, []trace.Event, error) {
	switch kind {
	case "kill-mid-replay":
		// Kill a server, then immediately restart a producer so its
		// wlog replay (and the suppression of its re-issued puts) rides
		// through the promotion of a warm spare.
		h, events, err := BuildSoakTrace(SoakOptions{Seed: 101, Label: "regression/" + kind})
		if err != nil {
			return h, nil, err
		}
		var anchors []int
		slot := int64(1)
		for i, e := range events {
			if e.Kind == trace.EvRestart {
				anchors = append(anchors, i)
			}
		}
		for i := len(anchors) - 1; i >= 0; i-- {
			events = insertEvent(events, anchors[i], trace.Event{Kind: trace.EvFailStop, Arg: slot})
			slot++
		}
		h.Flags |= trace.FlagFaults
		return h, renumber(events), nil

	case "tier-spill-enospc":
		// Degrade one cold tier with ENOSPC and tear a write on
		// another while spills are in flight; the sweep must still read
		// every version byte-exactly from RAM-degraded and twin-healed
		// tiers.
		h, events, err := BuildSoakTrace(SoakOptions{Seed: 202, Steps: 6, Tier: true, Label: "regression/" + kind})
		if err != nil {
			return h, nil, err
		}
		a1 := putAnchor(events, 3)
		a2 := putAnchor(events, 8)
		if a2 > a1 {
			events = insertEvent(events, a2, trace.Event{Kind: trace.EvTierFault, Arg: 2, Arg2: int64(failure.PFSTornWrite), Version: 7})
		}
		events = insertEvent(events, a1, trace.Event{Kind: trace.EvTierFault, Arg: 1, Arg2: int64(failure.PFSENOSPC), Version: -1})
		h.Flags |= trace.FlagFaults
		return h, renumber(events), nil

	case "overload-shed":
		// Flood bursts from a low-priority tenant against a tight
		// quota, plus a blackout mid-flood: admission must shed the
		// flood with typed errors and never disturb the workload
		// tenant's digest.
		h, events, err := BuildSoakTrace(SoakOptions{Seed: 303, Overload: true, Label: "regression/" + kind})
		if err != nil {
			return h, nil, err
		}
		a1 := putAnchor(events, 3)
		a2 := putAnchor(events, 6)
		a3 := putAnchor(events, 9)
		for _, ins := range []struct {
			at int
			ev trace.Event
		}{
			{a3, trace.Event{Kind: trace.EvFlood, Arg: 8}},
			{a2, trace.Event{Kind: trace.EvBlackout, Arg: 1, Arg2: 40}},
			{a1, trace.Event{Kind: trace.EvFlood, Arg: 6}},
		} {
			if ins.at >= 0 {
				events = insertEvent(events, ins.at, ins.ev)
			}
		}
		h.Flags |= trace.FlagFaults
		return h, renumber(events), nil

	default:
		return trace.Header{}, nil, fmt.Errorf("workflow: unknown regression trace %q", kind)
	}
}

// putAnchor returns the index of the EvLock opening the segment of the
// n-th put (1-based), i.e. the last between-segments position before
// it, or -1 if there are fewer puts.
func putAnchor(events []trace.Event, n int) int {
	seen := 0
	for i, e := range events {
		if e.Kind == trace.EvPut {
			seen++
			if seen == n {
				if i > 0 && events[i-1].Kind == trace.EvLock {
					return i - 1
				}
				return i
			}
		}
	}
	return -1
}

func insertEvent(events []trace.Event, i int, ev trace.Event) []trace.Event {
	events = append(events, trace.Event{})
	copy(events[i+1:], events[i:])
	events[i] = ev
	return events
}

// renumber restamps the logical clock 0..n-1 after insertions; the
// digest is untouched because fault events never carry get sums.
func renumber(events []trace.Event) []trace.Event {
	for i := range events {
		events[i].LC = uint64(i)
	}
	return events
}

// churnEvent converts one churn injection into its trace event,
// downgrading fail-stops beyond the spare budget into blackouts.
func churnEvent(inj failure.Injection, failStops *int, spares int) (trace.Event, bool) {
	switch inj.Kind {
	case failure.ServerFailStop:
		if *failStops >= spares {
			return trace.Event{Kind: trace.EvBlackout, Arg: int64(inj.Server), Arg2: 40}, true
		}
		*failStops++
		return trace.Event{Kind: trace.EvFailStop, Arg: int64(inj.Server)}, true
	case failure.ServerCrash:
		return trace.Event{Kind: trace.EvBlackout, Arg: int64(inj.Server), Arg2: int64(inj.Duration / time.Millisecond)}, true
	case failure.PFSTornWrite, failure.PFSPartialWrite, failure.PFSBitRot, failure.PFSENOSPC, failure.PFSSlowIO:
		return trace.Event{
			Kind: trace.EvTierFault, Arg: int64(inj.Server), Arg2: int64(inj.Kind),
			Version: int64(inj.Offset), Bytes: int64(inj.Duration / time.Millisecond),
		}, true
	case failure.TenantOverload:
		return trace.Event{Kind: trace.EvFlood, Arg: 3 + int64(inj.Duration/(10*time.Millisecond))}, true
	default:
		return trace.Event{}, false
	}
}

// RunSoak builds the seeded trace and executes it. The returned header
// and events are the artifact to persist when the run fails — they
// reproduce the failure deterministically.
func RunSoak(o SoakOptions) (trace.Header, []trace.Event, SoakResult, error) {
	h, events, err := BuildSoakTrace(o)
	if err != nil {
		return h, nil, SoakResult{}, err
	}
	res, err := ReplayTrace(h, events)
	return h, events, res, err
}

// ReplayTrace executes a soak trace against a freshly built staging
// group and verifies it: every checked get must return the recorded
// bytes, and when the header carries a digest the ordered fold of all
// checked gets must reproduce it. Running it twice on the same trace
// must yield identical results — that is the determinism contract the
// regression tests pin down.
func ReplayTrace(h trace.Header, events []trace.Event) (SoakResult, error) {
	x, err := newSoakExec(h)
	if err != nil {
		return SoakResult{}, err
	}
	defer x.close()
	if err := trace.NewReplayer(h, events).Run(x); err != nil {
		return x.result(), err
	}
	if err := x.finish(); err != nil {
		return x.result(), err
	}
	res := x.result()
	if h.Digest != 0 && res.Digest != h.Digest {
		return res, &trace.DivergenceError{
			LC: uint64(len(events)), Ev: trace.Event{Kind: trace.EvNote, Name: "final-digest"},
			Err: fmt.Errorf("workload digest %#x, recorded %#x", res.Digest, h.Digest),
		}
	}
	return res, nil
}

// soakExec drives a live staging group from trace events.
type soakExec struct {
	*faultGroup
	h       trace.Header
	sup     *recovery.Supervisor
	clients map[string]*staging.Client

	// history tracks each producer's logged puts since its last
	// checkpoint: exactly the suffix workflow_restart replays, so a
	// restart event re-issues them and the servers must suppress every
	// one byte-exactly. covered is the highest version the producer's
	// last checkpoint folded in — restarts pass it to
	// WorkflowRestartFrom, because a promoted spare may have restored a
	// wlog replica that lags behind the checkpoint mark (the torn
	// workflow_check case), and only the coverage hint lets the server
	// place the replay window where the lost mark would have.
	history map[string][]trace.Event
	covered map[string]int64
	lastPut map[string]int64

	res      SoakResult
	stateSum uint64
}

func newSoakExec(h trace.Header) (*soakExec, error) {
	if h.Servers < 2 || h.DimX != 64 || h.DimY != 64 || h.DimZ != 1 || h.Bits != 2 || h.ElemSize != 1 || h.Replicas != 2 {
		return nil, fmt.Errorf("workflow: trace header does not describe a soak environment: %+v", h)
	}
	var tierBudget int64
	if h.Flags&trace.FlagTier != 0 {
		tierBudget = h.MemBudget
	}
	f, err := newFaultGroup(fmt.Sprintf("soak/%d", h.Seed), h.Seed, h.Servers, h.Spares, h.Flags&trace.FlagOverload != 0, tierBudget)
	if err != nil {
		return nil, err
	}
	x := &soakExec{
		faultGroup: f,
		h:          h,
		clients:    map[string]*staging.Client{},
		history:    map[string][]trace.Event{},
		covered:    map[string]int64{},
		lastPut:    map[string]int64{},
	}
	// The death threshold must sit well above the longest recorded
	// blackout (Draw bounds them under 60ms, soak blackouts use
	// 20-60ms): declaring a blacked-out-but-alive server dead promotes
	// a spare, and when the blackout lifts the deposed server and any
	// client still bound to it share the same stale epoch — fencing
	// can't catch that pairing, so a put can be acked into deposed
	// state and silently lost. With these settings a dead verdict needs
	// ~140ms of continuous silence: transient blackouts ride, real
	// kills promote.
	x.sup = recovery.New(x.tr, x.group, recovery.Config{
		ID:       "soak/sup",
		LeaseTTL: 150 * time.Millisecond,
		Detector: health.Config{
			Period:       10 * time.Millisecond,
			Timeout:      30 * time.Millisecond,
			SuspectAfter: 4,
			DeadAfter:    12,
		},
	})
	x.sup.Start()
	// Dial every workload client now, while all slots are up: a client
	// created mid-churn would leave a dead slot unbound and pay a retry
	// whose count depends on promotion timing.
	apps := []string{soakSweep()}
	if h.Flags&trace.FlagOverload != 0 {
		apps = append(apps, soakFloodApp())
	}
	for g := 0; g < h.Groups; g++ {
		apps = append(apps, soakProd(g), soakCons(g))
	}
	for _, app := range apps {
		if _, err := x.client(app); err != nil {
			x.close()
			return nil, err
		}
	}
	return x, nil
}

func (x *soakExec) close() {
	for _, c := range x.clients {
		c.Close()
	}
	x.sup.Close()
	x.group.Close()
}

func (x *soakExec) result() SoakResult {
	r := x.res
	r.StateSum = x.stateSum
	return r
}

// finish waits for any in-flight promotion to settle; the trace's own
// sweep already audited the data, so this is teardown hygiene, not a
// correctness step.
func (x *soakExec) finish() error {
	return x.sup.WaitIdle(20 * time.Second)
}

func (x *soakExec) client(app string) (*staging.Client, error) {
	if c, ok := x.clients[app]; ok {
		return c, nil
	}
	c, err := x.group.NewClient(app)
	if err != nil {
		return nil, err
	}
	x.clients[app] = c
	return c, nil
}

// errSoakTerminal marks executor errors retrying cannot fix — a
// divergence from the recorded run.
var errSoakTerminal = errors.New("workflow: soak divergence")

// retry runs fn until success or deadline; every transient staging
// error (degraded, stale epoch, mid-promotion dead slot, overload
// backoff) heals with time, exactly as workflow ranks experience it.
// Terminal errors (errSoakTerminal, wlog divergence) surface at once.
func (x *soakExec) retry(c *staging.Client, fn func() error) error {
	deadline := time.Now().Add(15 * time.Second)
	first := true
	for {
		err := fn()
		if err == nil {
			return nil
		}
		if errors.Is(err, errSoakTerminal) || errors.Is(err, wlog.ErrReplayDivergence) {
			return err
		}
		if first {
			x.res.Retries++
			first = false
		}
		if time.Now().After(deadline) {
			return err
		}
		if c != nil {
			c.Reconnect()
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lockIdempotent reports whether a lock-op error is the signature of a
// lost-ack retry (the previous attempt already took effect): acquiring
// a write lock we already hold, or releasing one we no longer hold.
func lockIdempotent(err error) bool {
	if err == nil {
		return false
	}
	s := err.Error()
	return strings.Contains(s, "already holds write lock") || strings.Contains(s, "lock not held")
}

// Apply executes one trace event. It implements trace.Executor.
func (x *soakExec) Apply(ev trace.Event) error {
	switch ev.Kind {
	case trace.EvPut:
		c, err := x.client(ev.App)
		if err != nil {
			return err
		}
		data := soakPayload(ev.Seed, ev.Bytes)
		if err := x.retry(c, func() error {
			if ev.Logged {
				return c.PutWithLog(ev.Name, ev.Version, x.global, data)
			}
			return c.Put(ev.Name, ev.Version, x.global, data)
		}); err != nil {
			return err
		}
		x.res.Puts++
		if ev.Logged {
			x.history[ev.App] = append(x.history[ev.App], ev)
			if ev.Version > x.lastPut[ev.App] {
				x.lastPut[ev.App] = ev.Version
			}
		}
		return nil

	case trace.EvGet:
		c, err := x.client(ev.App)
		if err != nil {
			return err
		}
		var got []byte
		if err := x.retry(c, func() error {
			var gerr error
			if ev.Logged {
				got, _, gerr = c.GetWithLog(ev.Name, ev.Version, x.global)
			} else {
				got, _, gerr = c.Get(ev.Name, ev.Version, x.global)
			}
			return gerr
		}); err != nil {
			return err
		}
		sum := payloadSum(got)
		if ev.Sum != 0 && sum != ev.Sum {
			return fmt.Errorf("%w: get %s v%d returned sum %#x, recorded %#x (%d bytes)",
				errSoakTerminal, ev.Name, ev.Version, sum, ev.Sum, len(got))
		}
		x.res.Gets++
		x.res.Digest = foldDigest(x.res.Digest, sum)
		if ev.App == soakSweep() {
			x.stateSum = foldDigest(x.stateSum, sum)
		}
		return nil

	case trace.EvCheckpoint:
		c, err := x.client(ev.App)
		if err != nil {
			return err
		}
		if err := x.retry(c, func() error {
			_, cerr := c.WorkflowCheck()
			return cerr
		}); err != nil {
			return err
		}
		x.history[ev.App] = nil
		x.covered[ev.App] = x.lastPut[ev.App]
		return nil

	case trace.EvRestart:
		return x.applyRestart(ev)

	case trace.EvLock, trace.EvUnlock, trace.EvRLock, trace.EvRUnlock:
		c, err := x.client(ev.App)
		if err != nil {
			return err
		}
		return x.retry(c, func() error {
			var lerr error
			switch ev.Kind {
			case trace.EvLock:
				lerr = c.LockOnWrite(ev.Name)
			case trace.EvUnlock:
				lerr = c.UnlockOnWrite(ev.Name)
			case trace.EvRLock:
				lerr = c.LockOnRead(ev.Name)
			default:
				lerr = c.UnlockOnRead(ev.Name)
			}
			if lockIdempotent(lerr) {
				return nil
			}
			return lerr
		})

	case trace.EvFailStop:
		// A kill is a schedule barrier: the promotion must settle
		// before the workload proceeds. Two kills inside one promotion
		// window exceed the wlog redundancy and lose logged payloads
		// legitimately (the soak asserts recovery, not
		// correlated-failure data loss), and a put racing the tail of a
		// replica install can be clobbered by the restored snapshot.
		// The kill itself still tears live state — held client
		// bindings, wlog replica placement, the restart that follows in
		// the kill-mid-replay schedule — and every later operation runs
		// against the promoted membership.
		if err := x.sup.WaitIdle(20 * time.Second); err != nil {
			return err
		}
		if err := x.group.FailStop(int(ev.Arg)); err != nil {
			return err
		}
		x.res.FailStops++
		return x.sup.WaitIdle(20 * time.Second)

	case trace.EvBlackout:
		if err := x.blackout(int(ev.Arg), time.Duration(ev.Arg2)*time.Millisecond); err != nil {
			return fmt.Errorf("%w: %v", errSoakTerminal, err)
		}
		x.res.Blackouts++
		return nil

	case trace.EvTierFault:
		// Arming is best-effort by design: if the target server died
		// earlier in the schedule its backend is orphaned and the fault
		// has no one to bite — deterministically so, since the schedule
		// is fixed.
		if x.tierFault(int(ev.Arg), failure.Kind(ev.Arg2), int(ev.Version), time.Duration(ev.Bytes)*time.Millisecond) {
			x.res.TierFaults++
		}
		return nil

	case trace.EvFlood:
		return x.applyFlood(ev)

	case trace.EvNote:
		return nil

	default:
		return fmt.Errorf("%w: unknown event kind %v", errSoakTerminal, ev.Kind)
	}
}

// applyRestart re-runs the paper's recovery protocol for one producer:
// workflow_restart flips its queue into replay mode at the last
// checkpoint, and the producer re-issues every logged put since — the
// servers must suppress each one byte-exactly. A wlog divergence here
// is the torn-recovery failure the whole design exists to prevent, and
// it surfaces as a replay divergence at this event's logical clock.
func (x *soakExec) applyRestart(ev trace.Event) error {
	c, err := x.client(ev.App)
	if err != nil {
		return err
	}
	var replayed int
	if err := x.retry(c, func() error {
		n, rerr := c.WorkflowRestartFrom(x.covered[ev.App])
		if rerr != nil {
			return rerr
		}
		replayed = n
		return nil
	}); err != nil {
		return err
	}
	x.res.Restarts++
	x.res.Replayed += replayed
	for _, p := range x.history[ev.App] {
		data := soakPayload(p.Seed, p.Bytes)
		if err := x.retry(c, func() error {
			return c.PutWithLog(p.Name, p.Version, x.global, data)
		}); err != nil {
			return err
		}
	}
	return nil
}

// applyFlood issues one burst of low-priority flood-tenant puts. The
// admission layer sheds them at quota; typed overload rejections are
// the expected outcome, anything else transient is retried. Flood data
// never enters the digest — whether an individual flood put landed or
// shed may depend on promotion timing, so the determinism contract
// covers the workload tenant only.
func (x *soakExec) applyFlood(ev trace.Event) error {
	c, err := x.client(soakFloodApp())
	if err != nil {
		return err
	}
	for i := int64(0); i < ev.Arg; i++ {
		name := fmt.Sprintf("flood/f%d_%d", ev.LC, i)
		data := soakPayload(int64(ev.LC)+i, x.global.Volume())
		x.res.FloodPuts++
		err := x.retry(c, func() error {
			perr := c.Put(name, 1, x.global, data)
			if _, ok := qos.FromError(perr); ok {
				x.res.FloodSheds++
				return nil
			}
			return perr
		})
		if err != nil {
			return err
		}
	}
	return nil
}
