package failure

import (
	"math"
	"testing"
	"time"
)

func targets() []Target {
	return []Target{{Component: "sim", Ranks: 256}, {Component: "ana", Ranks: 64}}
}

func TestExponentialDeterministic(t *testing.T) {
	a, err := Exponential(42, 10*time.Minute, 3, time.Hour, targets())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Exponential(42, 10*time.Minute, 3, time.Hour, targets())
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("lens %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c, _ := Exponential(43, 10*time.Minute, 3, time.Hour, targets())
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical schedules")
	}
}

func TestExponentialWithinHorizonAndSorted(t *testing.T) {
	horizon := 40 * time.Minute
	s, err := Exponential(7, 10*time.Minute, 10, horizon, targets())
	if err != nil {
		t.Fatal(err)
	}
	for i, inj := range s {
		if inj.At <= 0 || inj.At >= horizon {
			t.Fatalf("injection %d at %v outside horizon", i, inj.At)
		}
		if i > 0 && s[i].At < s[i-1].At {
			t.Fatal("schedule not sorted")
		}
		if inj.Component != "sim" && inj.Component != "ana" {
			t.Fatalf("bad component %q", inj.Component)
		}
	}
}

func TestExponentialTargetWeighting(t *testing.T) {
	// With sim 4x larger than ana, most failures should land on sim.
	s, _ := Exponential(1, time.Minute, 400, time.Hour, targets())
	simCount := 0
	for _, inj := range s {
		if inj.Component == "sim" {
			simCount++
			if inj.Rank < 0 || inj.Rank >= 256 {
				t.Fatalf("rank %d out of range", inj.Rank)
			}
		} else if inj.Rank < 0 || inj.Rank >= 64 {
			t.Fatalf("ana rank %d out of range", inj.Rank)
		}
	}
	frac := float64(simCount) / 400
	if frac < 0.7 || frac > 0.9 {
		t.Fatalf("sim got %.2f of failures, expected ~0.8", frac)
	}
}

func TestExponentialValidation(t *testing.T) {
	if _, err := Exponential(1, 0, 1, time.Hour, targets()); err == nil {
		t.Fatal("zero MTBF accepted")
	}
	if _, err := Exponential(1, time.Minute, 1, 0, targets()); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := Exponential(1, time.Minute, 1, time.Hour, nil); err == nil {
		t.Fatal("no targets accepted")
	}
	if _, err := Exponential(1, time.Minute, 1, time.Hour, []Target{{Component: "x", Ranks: 0}}); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

func TestFixedSorts(t *testing.T) {
	s := Fixed(
		Injection{At: 3 * time.Minute, Component: "b"},
		Injection{At: time.Minute, Component: "a"},
	)
	if s[0].Component != "a" || s[1].Component != "b" {
		t.Fatalf("order = %v", s)
	}
}

func TestKindString(t *testing.T) {
	cases := []struct {
		kind Kind
		want string
	}{
		{RankFailStop, "rank-fail-stop"},
		{ServerCrash, "server-crash"},
		{NetDelay, "net-delay"},
		{NetDrop, "net-drop"},
		{ServerFailStop, "server-fail-stop"},
		{SupervisorKill, "supervisor-kill"},
		{TenantOverload, "tenant-overload"},
		{PFSTornWrite, "pfs-torn-write"},
		{PFSPartialWrite, "pfs-partial-write"},
		{PFSBitRot, "pfs-bit-rot"},
		{PFSENOSPC, "pfs-enospc"},
		{PFSSlowIO, "pfs-slow-io"},
		{Kind(99), "kind(99)"},
	}
	for _, c := range cases {
		if got := c.kind.String(); got != c.want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(c.kind), got, c.want)
		}
	}
}

// The plan shapes the fault harnesses draw: the chaos transport's
// network faults, the staging chaos soak, the nemesis soak's three
// families, and the churn soak's logical-clock mixes.
var drawPlans = []struct {
	name string
	plan Plan
}{
	{"chaos-network", Plan{N: 100, Kinds: []Kind{ServerCrash, NetDelay, NetDrop}, Horizon: 10 * time.Second, MeanFault: 200 * time.Millisecond, Servers: 4}},
	{"chaos-fail-stop", Plan{N: 40, Kinds: []Kind{ServerCrash, ServerFailStop}, Horizon: time.Hour, MeanFault: time.Minute, Servers: 4}},
	{"nemesis-chaos", Plan{N: 60, Kinds: []Kind{ServerCrash, SupervisorKill}, Horizon: 300 * time.Millisecond, MeanFault: 40 * time.Millisecond, Servers: 4, Supervisors: 2}},
	{"nemesis-storage", Plan{N: 60, Kinds: []Kind{PFSTornWrite, PFSPartialWrite, PFSBitRot, PFSENOSPC, PFSSlowIO}, Horizon: 300 * time.Millisecond, MeanFault: 40 * time.Millisecond, Servers: 4}},
	{"nemesis-overload", Plan{N: 20, Kinds: []Kind{TenantOverload}, Horizon: 300 * time.Millisecond, MeanFault: 40 * time.Millisecond, Servers: 4}},
	{"churn", Plan{N: 60, Kinds: []Kind{ServerFailStop, ServerCrash}, HorizonOps: 100, MeanFault: 40 * time.Millisecond, Servers: 3, FirstServer: 1}},
	{"churn-tier-overload", Plan{N: 80, Kinds: []Kind{ServerCrash, PFSTornWrite, PFSPartialWrite, PFSENOSPC, PFSSlowIO, TenantOverload}, HorizonOps: 200, MeanFault: 40 * time.Millisecond, Servers: 4, FirstServer: 1}},
}

// TestDrawPlans checks every harness plan shape: determinism, order and
// range on the plan's clock, targets inside the plan's range, each
// kind's parameter, and that every planned kind is drawn.
func TestDrawPlans(t *testing.T) {
	for _, c := range drawPlans {
		t.Run(c.name, func(t *testing.T) {
			p := c.plan
			s, err := Draw(21, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(s) != p.N {
				t.Fatalf("%d injections, want %d", len(s), p.N)
			}
			again, _ := Draw(21, p)
			other, _ := Draw(22, p)
			differs := false
			for i := range s {
				if s[i] != again[i] {
					t.Fatalf("same seed diverged at %d: %+v vs %+v", i, s[i], again[i])
				}
				differs = differs || s[i] != other[i]
			}
			if !differs {
				t.Fatal("different seeds drew identical schedules")
			}
			planned := map[Kind]bool{}
			for _, k := range p.Kinds {
				planned[k] = true
			}
			drawn := map[Kind]int{}
			for i, inj := range s {
				if p.HorizonOps > 0 {
					if inj.At != 0 || inj.AtOp < 0 || inj.AtOp >= p.HorizonOps {
						t.Fatalf("injection %d at %v/op %d outside op horizon %d", i, inj.At, inj.AtOp, p.HorizonOps)
					}
					if i > 0 && inj.AtOp < s[i-1].AtOp {
						t.Fatalf("unsorted by op clock at %d", i)
					}
				} else {
					if inj.AtOp != 0 || inj.At <= 0 || inj.At >= p.Horizon {
						t.Fatalf("injection %d at %v/op %d outside (0, %v)", i, inj.At, inj.AtOp, p.Horizon)
					}
					if i > 0 && inj.At < s[i-1].At {
						t.Fatalf("unsorted by time at %d", i)
					}
				}
				if !planned[inj.Kind] {
					t.Fatalf("drew unplanned kind %v", inj.Kind)
				}
				drawn[inj.Kind]++
				lo, hi := p.FirstServer, p.Servers
				if inj.Kind == SupervisorKill {
					lo, hi = 0, p.Supervisors
				}
				if inj.Server < lo || inj.Server >= hi {
					t.Fatalf("%v target %d outside [%d, %d)", inj.Kind, inj.Server, lo, hi)
				}
				switch inj.Kind {
				case ServerCrash, NetDelay, NetDrop, PFSSlowIO, TenantOverload:
					if inj.Duration < p.MeanFault/2 || inj.Duration >= 3*p.MeanFault/2 {
						t.Fatalf("%v window %v outside [mean/2, 3mean/2)", inj.Kind, inj.Duration)
					}
				default:
					if inj.Duration != 0 {
						t.Fatalf("%v with recovery horizon %v", inj.Kind, inj.Duration)
					}
				}
				switch inj.Kind {
				case PFSTornWrite, PFSPartialWrite, PFSBitRot:
					if inj.Offset < -1 || inj.Offset >= 255 {
						t.Fatalf("%v offset %d outside [-1, 255)", inj.Kind, inj.Offset)
					}
				default:
					if inj.Offset != 0 {
						t.Fatalf("%v with offset %d", inj.Kind, inj.Offset)
					}
				}
			}
			for _, k := range p.Kinds {
				if drawn[k] == 0 {
					t.Fatalf("%d draws produced no %v", p.N, k)
				}
			}
		})
	}
}

// TestDrawValidation rejects every degenerate plan. A 1ns horizon
// leaves no instant strictly inside (0, horizon) and used to panic in
// Int63n(0).
func TestDrawValidation(t *testing.T) {
	ok := Plan{N: 5, Kinds: []Kind{ServerCrash}, Horizon: time.Second, MeanFault: time.Millisecond, Servers: 4}
	for _, c := range []struct {
		name string
		edit func(p *Plan)
	}{
		{"horizon-zero", func(p *Plan) { p.Horizon = 0 }},
		{"horizon-1ns", func(p *Plan) { p.Horizon = time.Nanosecond }},
		{"mean-zero", func(p *Plan) { p.MeanFault = 0 }},
		{"no-kinds", func(p *Plan) { p.Kinds = nil }},
		{"no-servers", func(p *Plan) { p.Servers = 0 }},
		{"empty-server-range", func(p *Plan) { p.HorizonOps, p.Servers, p.FirstServer = 10, 1, 1 }},
		{"rank-fail-stop", func(p *Plan) { p.Kinds = []Kind{ServerCrash, RankFailStop} }},
		{"supervisor-kill-without-supervisors", func(p *Plan) { p.Kinds = []Kind{SupervisorKill} }},
		{"supervisor-kill-on-op-clock", func(p *Plan) { p.Kinds, p.Supervisors, p.HorizonOps = []Kind{SupervisorKill}, 2, 10 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := ok
			c.edit(&p)
			if _, err := Draw(1, p); err == nil {
				t.Fatalf("plan %+v accepted", p)
			}
		})
	}
	// The smallest valid horizon must work, not panic.
	p := ok
	p.Horizon = 2 * time.Nanosecond
	s, err := Draw(1, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, inj := range s {
		if inj.At != time.Nanosecond {
			t.Fatalf("injection at %v outside (0, 2ns)", inj.At)
		}
	}
}

func TestExpectedFailures(t *testing.T) {
	if got := ExpectedFailures(10*time.Minute, 40*time.Minute); got != 4 {
		t.Fatalf("expected = %f", got)
	}
	if !math.IsInf(ExpectedFailures(0, time.Minute), 1) {
		t.Fatal("zero MTBF should be Inf")
	}
}
