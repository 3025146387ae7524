package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"gospaces/internal/domain"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100},
		{parent: 0, start: 10, end: 30},
		{parent: 0, start: 20, end: 50},  // overlaps its sibling: counted once
		{parent: 0, start: 90, end: 120}, // runs past its parent: clipped
		{parent: 1, start: 12, end: 18},
		{parent: -1, start: 40, end: 60}, // unrelated span in the same window
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 20}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, self[i], want[i])
		}
	}
}

func TestLinkNeverCrossAttributesRanks(t *testing.T) {
	// Two ranks' calls to one server overlap; each handler names its
	// rank and must link to that rank's call although both contain it.
	spans := []span{
		{parent: -1, layer: layerCall, kind: "PutReq", rank: "sim/0", addr: "s0", start: 0, end: 100},
		{parent: -1, layer: layerCall, kind: "PutReq", rank: "sim/1", addr: "s0", start: 5, end: 90},
		{parent: -1, layer: layerHandle, kind: "PutReq", rank: "sim/1", addr: "s0", start: 10, end: 40},
		{parent: -1, layer: layerHandle, kind: "PutReq", rank: "sim/0", addr: "s0", start: 45, end: 80},
		// No rank named and two candidate calls: left unlinked.
		{parent: -1, layer: layerCall, kind: "ShardPutReq", rank: "sim/0", addr: "s0", start: 0, end: 50},
		{parent: -1, layer: layerCall, kind: "ShardPutReq", rank: "sim/1", addr: "s0", start: 0, end: 50},
		{parent: -1, layer: layerHandle, kind: "ShardPutReq", addr: "s0", start: 10, end: 20},
		// Another server's call never parents this server's handler.
		{parent: -1, layer: layerCall, kind: "GetReq", rank: "ana/0", addr: "s1", start: 0, end: 50},
		{parent: -1, layer: layerHandle, kind: "GetReq", rank: "ana/0", addr: "s0", start: 10, end: 20},
	}
	if n := link(spans); n != 2 {
		t.Fatalf("unlinked %d, want 2", n)
	}
	if spans[2].parent != 1 || spans[3].parent != 0 {
		t.Fatalf("handler parents %d, %d; want 1, 0", spans[2].parent, spans[3].parent)
	}
	self := selfTimes(spans)
	if self[0] != 100-35 || self[1] != 85-30 {
		t.Fatalf("call self times %d, %d; want 65, 55", self[0], self[1])
	}
}

// TestConcurrentRanksLive drives two ranks at once through traced
// transports, as the benchmark does, and checks every handler span is
// attributed to the rank that issued its request.
func TestConcurrentRanksLive(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tr     transport.Transport
		prefix string
	}{
		{"inproc", transport.NewInProc(), "srv"},
		{"tcp", transport.NewTCP(), "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := newRecorder()
			group := &tracedTransport{inner: tc.tr, rec: rec}
			closer, err := group.Listen(tc.prefix, func(req any) (any, error) {
				time.Sleep(50 * time.Microsecond)
				return staging.GetResp{}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer closer.Close()
			addr := tc.prefix
			if a, ok := closer.(interface{ Addr() string }); ok {
				addr = a.Addr()
			}
			var wg sync.WaitGroup
			for r := 0; r < nRanks; r++ {
				wg.Add(1)
				go func(rank string) {
					defer wg.Done()
					c, err := (&tracedTransport{inner: tc.tr, rec: rec, rank: rank}).Dial(addr)
					if err != nil {
						t.Error(err)
						return
					}
					defer c.Close()
					for i := 0; i < 200; i++ {
						op := rec.begin(layerOp, "GetWithLog", rank, "")
						_, err := c.Call(staging.EpochReq{Epoch: 1, Req: staging.GetReq{App: rank, Name: "x"}})
						rec.end(op, 0)
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(fmt.Sprintf("ana/%d", r))
			}
			wg.Wait()
			spans := rec.take()
			if n := link(spans); n != 0 {
				t.Fatalf("%d handler spans unlinked", n)
			}
			handles := 0
			for _, s := range spans {
				switch s.layer {
				case layerHandle:
					handles++
					if p := spans[s.parent]; p.layer != layerCall || p.rank != s.rank {
						t.Fatalf("handler of %s linked to %s span of %q", s.rank, p.layer, p.rank)
					}
				case layerCall:
					if p := spans[s.parent]; p.layer != layerOp || p.rank != s.rank {
						t.Fatalf("call of %s has parent %s of %q", s.rank, p.layer, p.rank)
					}
				}
			}
			if handles != 2*200 {
				t.Fatalf("%d handler spans, want 400", handles)
			}
		})
	}
}

// tiny shrinks a workload's domain so a full workflow run takes
// milliseconds; the memory budget scales with it.
func tiny(w workload) workload {
	w.global = domain.Box3(0, 0, 0, 15, 15, 7)
	return w
}

type benchmarkSpec struct {
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
	Workloads []struct {
		Name string
		Why  string
	} `json:"workloads"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func names(ms map[string]metric) []string {
	out := make([]string, 0, len(ms))
	for k := range ms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func specNames(list []struct{ Name string }) []string {
	out := make([]string, 0, len(list))
	for _, m := range list {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmokeWorkloads runs every workload at a tiny size, untraced and
// traced, with every correctness check on, and checks the metrics it
// reports are exactly the ones BENCHMARK.json declares.
func TestSmokeWorkloads(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Fatalf("BENCHMARK.json workload %d is %q, the benchmark has %q with another why", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				o := options{seed: 7, trace: trace, commit: "test"}
				res := measure(tiny(w), o, io.Discard)
				if !res.Correct || res.Failed != 0 || res.Attempted < minSamples {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				want := specNames(spec.EndToEnd)
				if trace {
					want = specNames(spec.PerLayer)
				}
				if got := names(res.Metrics); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("trace=%v: metrics\n%v\nBENCHMARK.json declares\n%v", trace, got, want)
				}
				if trace {
					if n := res.Metrics["bench.unlinked_spans"].Value; n != 0 {
						t.Fatalf("%v handler spans unlinked", n)
					}
					continue
				}
				for k, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s = %v, want > 0", k, m.Value)
					}
				}
			}
		})
	}
}

// TestVerifyCatchesOneWrongByte checks the byte verification every get
// goes through: the consumer's box of a version passes, and the same
// box with one byte changed fails.
func TestVerifyCatchesOneWrongByte(t *testing.T) {
	fx, err := newFixture(tiny(workloads[0]), 3)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{fixture: fx, res: &runResult{}}
	r.generate(1)
	data := fx.field.Fill(1, fx.anaBox[1])
	if err := r.check(1, 1, data); err != nil {
		t.Fatalf("intact data: %v", err)
	}
	data[len(data)/2] ^= 1
	if err := r.check(1, 1, data); err == nil {
		t.Fatal("one flipped byte passed verification")
	}
}

func TestQuietestDropsStolenRuns(t *testing.T) {
	mk := func(steals ...float64) []*runResult {
		var runs []*runResult
		for _, s := range steals {
			runs = append(runs, &runResult{steal: s, put: make([]time.Duration, 60), get: make([]time.Duration, 60)})
		}
		return runs
	}
	kept := func(runs []*runResult) []float64 {
		var out []float64
		for _, r := range quietest(runs) {
			out = append(out, r.steal)
		}
		return out
	}
	for _, tc := range []struct {
		steals, want []float64
	}{
		// A burst hits two runs of a quiet series: they drop out.
		{[]float64{0, 0.5, 0.01, 0.3, 0}, []float64{0, 0.01, 0}},
		// A stolen series keeps its quieter half, widened to minRuns.
		{[]float64{0.3, 0.2, 0.4, 0.1}, []float64{0.3, 0.2, 0.1}},
		// Too few samples otherwise: every run is kept.
		{[]float64{0.9, 0}, []float64{0.9, 0}},
	} {
		if got := kept(mk(tc.steals...)); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("quietest(%v) kept %v, want %v", tc.steals, got, tc.want)
		}
	}
}
