// Package failure generates fail-stop failure schedules for workflow
// experiments. The paper injects random process failures with
// MTBF = 10 min into 40-timestep synthetic runs (§IV-A) and scales the
// failure count with the system size in Table III (MTBF 600/300/200 s
// for 1/2/3 failures).
package failure

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Kind classifies an injected fault. The zero value is the original
// rank fail-stop, so existing schedules keep their meaning; the other
// kinds target the staging data path and are consumed by the chaos
// transport (internal/transport.Chaos).
type Kind int

const (
	// RankFailStop kills one application rank (paper §IV-A).
	RankFailStop Kind = iota
	// ServerCrash blacks out one staging server for Duration: dials and
	// calls fail as if the process died, then the address recovers.
	ServerCrash
	// NetDelay adds latency to every call to one server for Duration.
	NetDelay
	// NetDrop loses responses from one server for Duration: the server
	// processes the request but the client observes a timeout.
	NetDrop
	// ServerFailStop permanently kills one staging server: its state is
	// lost and the address never recovers. Unlike the transient
	// ServerCrash there is no recovery horizon — only the recovery
	// supervisor (internal/recovery) promoting a spare brings the slot
	// back.
	ServerFailStop
	// SupervisorKill kills one recovery supervisor (Server indexes the
	// supervisor, not a staging server). The nemesis harness
	// (internal/workflow.RunNemesis) consumes it to crash leaders
	// mid-promotion; the chaos transport ignores it.
	SupervisorKill
	// TenantOverload floods the staging group with low-priority tenant
	// puts for Duration — offered load, not a fault in the transport
	// sense. The nemesis harness consumes it to drive the admission
	// control layer (internal/qos) while real faults are in flight; the
	// chaos transport ignores it.
	TenantOverload
	// The PFS* kinds target the cold-tier backend (internal/pfs) of one
	// staging server rather than the network: the nemesis harness arms
	// them on the server's tier store (FailNextWriteAt, Corrupt,
	// SetCapacity, SetSlowIO); the chaos transport ignores them.

	// PFSTornWrite truncates the next tier write mid-record.
	PFSTornWrite
	// PFSPartialWrite cuts the next tier write at a random byte offset.
	PFSPartialWrite
	// PFSBitRot flips one bit of a spilled record at rest.
	PFSBitRot
	// PFSENOSPC makes the next tier write fail with no space; the tier
	// must degrade to RAM-only mode instead of losing data.
	PFSENOSPC
	// PFSSlowIO adds latency to every tier read/write for Duration.
	PFSSlowIO
)

// String renders the kind for traces and logs.
func (k Kind) String() string {
	switch k {
	case RankFailStop:
		return "rank-fail-stop"
	case ServerCrash:
		return "server-crash"
	case NetDelay:
		return "net-delay"
	case NetDrop:
		return "net-drop"
	case ServerFailStop:
		return "server-fail-stop"
	case SupervisorKill:
		return "supervisor-kill"
	case TenantOverload:
		return "tenant-overload"
	case PFSTornWrite:
		return "pfs-torn-write"
	case PFSPartialWrite:
		return "pfs-partial-write"
	case PFSBitRot:
		return "pfs-bit-rot"
	case PFSENOSPC:
		return "pfs-enospc"
	case PFSSlowIO:
		return "pfs-slow-io"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Injection is one scheduled fault event.
type Injection struct {
	// At is the time of the failure relative to workflow start.
	At time.Duration
	// Kind classifies the fault (zero value: rank fail-stop).
	Kind Kind
	// Component names the workflow component that fails (RankFailStop).
	Component string
	// Rank is the failing rank within the component (RankFailStop).
	Rank int
	// Server is the target staging server id (ServerCrash/Net*).
	Server int
	// Duration is the fault window length (ServerCrash/Net*/PFSSlowIO);
	// fail-stops — rank or server — are instantaneous and carry zero
	// duration (a ServerFailStop never recovers).
	Duration time.Duration
	// Offset is the byte offset a PFS torn/partial write or bit flip
	// lands at; negative means "let the store pick" (halfway through the
	// record). Only the PFS* kinds use it.
	Offset int
	// AtOp positions the injection on a logical-operation clock instead
	// of wall time: the fault fires before the AtOp-th workload
	// operation. Plans with HorizonOps (the trace-recorded soak,
	// internal/workflow.RunSoak) use it so a recorded fault lands at the
	// same point of the schedule on every replay regardless of machine
	// speed; wall-clock At is unused in such schedules.
	AtOp int
}

// Schedule is a time-ordered list of injections.
type Schedule []Injection

// Targets describes the components failures may hit; weights are the
// component sizes (larger components absorb proportionally more
// failures, as on a real machine).
type Target struct {
	Component string
	Ranks     int
}

// Exponential draws n failures with exponentially distributed
// inter-arrival times of the given MTBF, assigning each failure to a
// target component with probability proportional to its rank count.
// The schedule is deterministic for a given seed. Failures falling
// beyond horizon are wrapped back into (0, horizon) so the requested
// count always lands inside the run, matching the paper's "a failure
// was randomly introduced within 40 time steps" setup.
func Exponential(seed int64, mtbf time.Duration, n int, horizon time.Duration, targets []Target) (Schedule, error) {
	if mtbf <= 0 {
		return nil, fmt.Errorf("failure: non-positive MTBF %v", mtbf)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("failure: no targets")
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("failure: non-positive horizon %v", horizon)
	}
	total := 0
	for _, t := range targets {
		if t.Ranks <= 0 {
			return nil, fmt.Errorf("failure: target %q with %d ranks", t.Component, t.Ranks)
		}
		total += t.Ranks
	}
	rng := rand.New(rand.NewSource(seed))
	sched := make(Schedule, 0, n)
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		gap := time.Duration(rng.ExpFloat64() * float64(mtbf))
		at += gap
		t := at % horizon
		if t == 0 {
			t = horizon / 2
		}
		pick := rng.Intn(total)
		var comp string
		var ranks int
		for _, tg := range targets {
			if pick < tg.Ranks {
				comp = tg.Component
				ranks = tg.Ranks
				break
			}
			pick -= tg.Ranks
		}
		sched = append(sched, Injection{At: t, Component: comp, Rank: rng.Intn(ranks)})
	}
	sort.Slice(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched, nil
}

// Plan describes one seeded fault schedule for Draw: which kinds to
// inject, on which clock, and against which targets. The fault harnesses
// differ only in their plans — the chaos transport's network faults,
// the nemesis soak's blackouts, supervisor kills, storage faults and
// overload windows, and the churn soak's logical-clock schedules.
type Plan struct {
	// N is the number of injections.
	N int
	// Kinds are drawn uniformly per injection.
	Kinds []Kind
	// Horizon positions injections on the wall clock, uniformly over
	// (0, Horizon). Ignored when HorizonOps is set.
	Horizon time.Duration
	// HorizonOps positions injections on a logical-operation clock
	// instead (Injection.AtOp uniform in [0, HorizonOps)), so a recorded
	// schedule re-arms each fault at the same workload position on every
	// replay regardless of machine speed.
	HorizonOps int
	// MeanFault sets window lengths: ServerCrash, NetDelay, NetDrop,
	// PFSSlowIO and TenantOverload last [MeanFault/2, 3*MeanFault/2).
	MeanFault time.Duration
	// Servers and FirstServer bound the target range
	// [FirstServer, Servers). The churn soak sets FirstServer 1: the lock
	// server's RPC dedup keys on a per-client sequence a client-level
	// retry cannot reuse, so faulting slot 0 would make retried lock
	// acquires ambiguous and the replay nondeterministic.
	Servers     int
	FirstServer int
	// Supervisors is the target range [0, Supervisors) of SupervisorKill.
	Supervisors int
}

// Draw generates the schedule plan describes, deterministically for a
// given seed. Per injection it draws the kind, the position, the target
// server, then the kind's parameter: a window length, a byte offset in
// [-1, 255) for torn/partial writes and bit rot (-1 lets the store pick
// halfway; offsets land anywhere in a small record, including the
// CRC'd header), or the supervisor a SupervisorKill targets. Fail-stops
// and ENOSPC are instantaneous. The schedule is sorted by position.
func Draw(seed int64, p Plan) (Schedule, error) {
	ops := p.HorizonOps > 0
	// Wall-clock injections land strictly inside (0, Horizon), so the
	// horizon must leave at least one representable instant between the
	// endpoints (1ns would also make Int63n panic on a zero bound).
	if !ops && p.Horizon <= time.Nanosecond {
		return nil, fmt.Errorf("failure: horizon %v too short", p.Horizon)
	}
	if p.MeanFault <= 0 {
		return nil, fmt.Errorf("failure: non-positive mean fault duration %v", p.MeanFault)
	}
	if len(p.Kinds) == 0 {
		return nil, fmt.Errorf("failure: plan draws no kinds")
	}
	if p.FirstServer < 0 || p.Servers <= p.FirstServer {
		return nil, fmt.Errorf("failure: empty server range [%d, %d)", p.FirstServer, p.Servers)
	}
	for _, k := range p.Kinds {
		switch {
		case k == RankFailStop:
			return nil, fmt.Errorf("failure: rank fail-stops belong in Exponential schedules")
		case k == SupervisorKill && ops:
			return nil, fmt.Errorf("failure: %v has no logical-clock semantics", k)
		case k == SupervisorKill && p.Supervisors <= 0:
			return nil, fmt.Errorf("failure: %v with %d supervisors", k, p.Supervisors)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	sched := make(Schedule, 0, p.N)
	for i := 0; i < p.N; i++ {
		inj := Injection{Kind: p.Kinds[rng.Intn(len(p.Kinds))]}
		if ops {
			inj.AtOp = rng.Intn(p.HorizonOps)
		} else {
			inj.At = time.Duration(rng.Int63n(int64(p.Horizon)-1)) + 1
		}
		inj.Server = p.FirstServer + rng.Intn(p.Servers-p.FirstServer)
		switch inj.Kind {
		case ServerCrash, NetDelay, NetDrop, PFSSlowIO, TenantOverload:
			inj.Duration = p.MeanFault/2 + time.Duration(rng.Int63n(int64(p.MeanFault)))
		case PFSTornWrite, PFSPartialWrite, PFSBitRot:
			inj.Offset = rng.Intn(256) - 1
		case SupervisorKill:
			inj.Server = rng.Intn(p.Supervisors)
		}
		sched = append(sched, inj)
	}
	if ops {
		sort.SliceStable(sched, func(i, j int) bool { return sched[i].AtOp < sched[j].AtOp })
	} else {
		sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	}
	return sched, nil
}

// Fixed builds a schedule from explicit injections (sorted by time).
func Fixed(inj ...Injection) Schedule {
	s := append(Schedule(nil), inj...)
	sort.Slice(s, func(i, j int) bool { return s[i].At < s[j].At })
	return s
}

// ExpectedFailures returns the expected failure count over the horizon
// for a given MTBF, for sanity checks in experiment configs.
func ExpectedFailures(mtbf, horizon time.Duration) float64 {
	if mtbf <= 0 {
		return math.Inf(1)
	}
	return float64(horizon) / float64(mtbf)
}
