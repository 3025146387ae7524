package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
)

// cpuTicks returns the machine's CPU time and the part of it the
// hypervisor gave to other guests (steal), in clock ticks, from the
// first line of /proc/stat. Without that file both are zero.
func cpuTicks() (total, steal int64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice],
	// where guest time is already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealFloor is the steal share below which a run counts as quiet.
const stealFloor = 0.02

// quietest drops the runs that lost more of the machine's CPU to steal
// than both stealFloor and the median run did, keeping the rest in
// their original order. It widens the kept set in order of steal until
// it holds minRuns runs and minSamples puts and gets. A slow spell of
// the host then drops out of the result, while a slower program slows
// every run it keeps.
func quietest(runs []*runResult) []*runResult {
	idx := make([]int, len(runs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return runs[idx[a]].steal < runs[idx[b]].steal })
	limit := stealFloor
	if len(runs) > 0 {
		limit = max(limit, runs[idx[(len(runs)-1)/2]].steal)
	}
	keep := make([]bool, len(runs))
	puts, gets, n := 0, 0, 0
	for _, i := range idx {
		if runs[i].steal > limit && n >= minRuns && puts >= minSamples && gets >= minSamples {
			break
		}
		keep[i] = true
		n++
		puts += len(runs[i].put)
		gets += len(runs[i].get)
	}
	var out []*runResult
	for i, r := range runs {
		if keep[i] {
			out = append(out, r)
		}
	}
	return out
}
