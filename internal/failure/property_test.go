package failure

import (
	"math"
	"testing"
	"time"
)

// TestExponentialProperties is the schedule-generator property test:
// over a grid of seeds and sizes, every schedule must be sorted, every
// injection must land strictly inside (0, horizon), and for a large
// fixed-seed draw the per-component pick frequencies must track the
// rank-count weights.
func TestExponentialProperties(t *testing.T) {
	horizon := 40 * time.Minute
	tgts := []Target{
		{Component: "sim", Ranks: 60},
		{Component: "ana", Ranks: 30},
		{Component: "viz", Ranks: 10},
	}
	for seed := int64(1); seed <= 25; seed++ {
		for _, n := range []int{1, 7, 40} {
			s, err := Exponential(seed, 10*time.Minute, n, horizon, tgts)
			if err != nil {
				t.Fatal(err)
			}
			if len(s) != n {
				t.Fatalf("seed %d: %d injections, want %d", seed, len(s), n)
			}
			for i, inj := range s {
				if inj.At <= 0 || inj.At >= horizon {
					t.Fatalf("seed %d: injection %d at %v outside (0, %v)", seed, i, inj.At, horizon)
				}
				if i > 0 && s[i-1].At > inj.At {
					t.Fatalf("seed %d: schedule not sorted at %d", seed, i)
				}
				if inj.Kind != RankFailStop {
					t.Fatalf("seed %d: Exponential produced kind %v", seed, inj.Kind)
				}
			}
		}
	}

	// Frequency proportionality for one large fixed-seed schedule:
	// expected fractions 0.6 / 0.3 / 0.1 of rank counts 60/30/10.
	const n = 2000
	s, err := Exponential(99, time.Minute, n, horizon, tgts)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, inj := range s {
		counts[inj.Component]++
		ranks := map[string]int{"sim": 60, "ana": 30, "viz": 10}[inj.Component]
		if ranks == 0 {
			t.Fatalf("unknown component %q", inj.Component)
		}
		if inj.Rank < 0 || inj.Rank >= ranks {
			t.Fatalf("%s rank %d out of range", inj.Component, inj.Rank)
		}
	}
	for comp, want := range map[string]float64{"sim": 0.6, "ana": 0.3, "viz": 0.1} {
		got := float64(counts[comp]) / n
		// 3-sigma binomial tolerance.
		tol := 3 * math.Sqrt(want*(1-want)/n)
		if math.Abs(got-want) > tol {
			t.Errorf("%s frequency %.3f, want %.3f ± %.3f", comp, got, want, tol)
		}
	}
}
