// Command perfbench is the repository's end-to-end benchmark. It drives
// the live staging stack with the paper's coupling loop (producers put,
// consumers immediately read, both checkpoint and crash) and reports
// the paper's metrics: write response time, put/get latency, staging
// memory, workflow time and recovery time. With -trace 1 it instead
// records spans at every layer boundary it can see from outside the
// program and reports per-layer metrics. Run it through run.py, which
// builds it from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Every measurement holds at least minRuns workflow runs and
// minSamples puts and gets, so p90 has at least ten samples beyond it,
// and stops after hardStop whatever it has.
const (
	minRuns    = 3
	minSamples = 100
	hardStop   = 150 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value (0 = a count, not a timing)
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	commit  string
}

func main() {
	var o options
	var name string
	var traceFlag int
	flag.StringVar(&name, "workload", "", "workload name, or \"all\"")
	flag.Int64Var(&o.seed, "seed", 1, "selects the coupled field's content")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement time per workload")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.commit, "commit", "unknown", "commit or source digest stamped into the result")
	flag.Parse()
	o.trace = traceFlag == 1

	var todo []workload
	if name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		os.Exit(2)
	}

	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range todo {
		res := measure(w, o, os.Stdout)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(todo) > 1 {
				k = w.name + "/" + k
			}
			all.Metrics[k] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !all.Correct {
		os.Exit(1)
	}
}

// measure runs workflow runs of w for o.seconds and returns the
// end-to-end metrics, or with o.trace the per-layer metrics. It prints
// the environment and a table of every metric with its unit and sample
// count to out.
func measure(w workload, o options, out io.Writer) result {
	env := map[string]any{
		"workload": w.name, "seed": o.seed, "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"commit": o.commit, "trace": o.trace, "seconds": o.seconds,
	}
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(out, "env %s\n", envLine)

	var plain, traced []*runResult
	fx, err := newFixture(w, o.seed)
	if err == nil {
		plain, traced, err = series(fx, o)
	}
	res := result{Correct: err == nil, Metrics: map[string]metric{}}
	for _, r := range append(plain, traced...) {
		res.Attempted += r.attempted
	}
	if err != nil {
		res.Failed = 1
		fmt.Fprintf(out, "FAILED %s: %v\n", w.name, err)
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	if err == nil {
		kept := quietest(plain)
		fmt.Fprintf(out, "runs %d, kept %d with the least CPU steal: steal median %.1f%% over all, %.1f%% over kept\n",
			len(plain), len(kept), 100*medianSteal(plain), 100*medianSteal(kept))
		if o.trace {
			res.Metrics = layerMetrics(fx, kept, quietest(traced), res)
		} else {
			res.Metrics = endToEnd(kept)
		}
	}
	printTable(out, w.name, res.Metrics)
	return res
}

// series runs workflow runs until o.seconds have passed and the
// untraced runs hold minSamples puts and gets and minRuns runs. With
// o.trace every untraced run is followed by a traced one, so both see
// the same machine and their difference is the tracing overhead.
func series(fx *fixture, o options) (plain, traced []*runResult, err error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	puts := 0
	for {
		r, err := runOnce(fx, nil)
		if r != nil {
			plain = append(plain, r)
			puts += min(len(r.put), len(r.get))
		}
		if err != nil {
			return plain, traced, err
		}
		if o.trace {
			r, err := runOnce(fx, newRecorder())
			if r != nil {
				traced = append(traced, r)
			}
			if err != nil {
				return plain, traced, err
			}
		}
		el := time.Since(start)
		if el >= hardStop || (el >= budget && puts >= minSamples && len(plain) >= minRuns) {
			return plain, traced, nil
		}
	}
}

// endToEnd computes the end-to-end metrics of untraced runs. Per-run
// quantities are medians over the runs. A latency percentile is the
// median over batches of consecutive runs, each batch holding at least
// minSamples puts and gets, of the batch's percentile: a burst of
// contention from outside the process then shifts a few batches, not
// the result.
func endToEnd(runs []*runResult) map[string]metric {
	var setup, wf, wr, mem, peak []float64
	for _, r := range runs {
		setup = append(setup, r.setup.Seconds())
		wf = append(wf, r.workflow.Seconds())
		wr = append(wr, r.writeResp.Seconds())
		mem = append(mem, r.memAvg)
		peak = append(peak, r.memPeak)
	}
	perRun := func(v []float64, unit string) metric {
		return metric{Value: quantile(v, 0.5), Unit: unit, n: len(v)}
	}
	groups := batches(runs)
	lat := func(pick func(*runResult) []time.Duration, p float64) metric {
		var vals []float64
		n := 0
		for _, g := range groups {
			var ms []float64
			for _, r := range g {
				ms = appendMs(ms, pick(r))
			}
			if len(ms) > 0 {
				vals = append(vals, quantile(ms, p))
				n += len(ms)
			}
		}
		return metric{Value: quantile(vals, 0.5), Unit: "ms", n: n}
	}
	put := func(r *runResult) []time.Duration { return r.put }
	get := func(r *runResult) []time.Duration { return r.get }
	return map[string]metric{
		"setup_s":              perRun(setup, "s"),
		"workflow_s":           perRun(wf, "s"),
		"write_resp_s":         perRun(wr, "s"),
		"put_p50_ms":           lat(put, 0.5),
		"put_p90_ms":           lat(put, 0.9),
		"get_p50_ms":           lat(get, 0.5),
		"get_p90_ms":           lat(get, 0.9),
		"check_p50_ms":         lat(func(r *runResult) []time.Duration { return r.check }, 0.5),
		"ana_restart_p50_ms":   lat(func(r *runResult) []time.Duration { return r.anaRestart }, 0.5),
		"sim_restart_p50_ms":   lat(func(r *runResult) []time.Duration { return r.simRestart }, 0.5),
		"staging_mem_mib":      perRun(mem, "MiB"),
		"staging_mem_peak_mib": perRun(peak, "MiB"),
	}
}

// batches groups consecutive runs so that each group holds at least
// minSamples puts and gets; a short tail joins the last group.
func batches(runs []*runResult) [][]*runResult {
	var out [][]*runResult
	var cur []*runResult
	puts, gets := 0, 0
	for _, r := range runs {
		cur = append(cur, r)
		puts += len(r.put)
		gets += len(r.get)
		if puts >= minSamples && gets >= minSamples {
			out = append(out, cur)
			cur, puts, gets = nil, 0, 0
		}
	}
	if len(cur) > 0 {
		if len(out) == 0 {
			return [][]*runResult{cur}
		}
		out[len(out)-1] = append(out[len(out)-1], cur...)
	}
	return out
}

func medianSteal(runs []*runResult) float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.steal
	}
	return quantile(v, 0.5)
}

func appendMs(dst []float64, ds []time.Duration) []float64 {
	for _, d := range ds {
		dst = append(dst, float64(d.Nanoseconds())/1e6)
	}
	return dst
}

// quantile interpolates linearly between the order statistics of v.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func printTable(out io.Writer, name string, ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(out, "%-14s %-36s %14s %-8s %s\n", "workload", "metric", "value", "unit", "samples")
	for _, k := range keys {
		m := ms[k]
		n := "-"
		if m.n > 0 {
			n = fmt.Sprint(m.n)
		}
		fmt.Fprintf(out, "%-14s %-36s %14.6g %-8s %s\n", name, k, m.Value, m.Unit, n)
	}
	fmt.Fprintln(out, strings.Repeat("-", 80))
}
