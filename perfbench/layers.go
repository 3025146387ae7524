package main

// msgKinds are the staging messages whose transport and server time the
// per-layer metrics break out.
var msgKinds = []string{"PutReq", "GetReq", "CheckpointReq", "RecoveryReq", "ShardPutReq", "ReplApplyReq"}

// layerTotals accumulates per-layer quantities over traced runs.
type layerTotals struct {
	putSelf, getSelf     float64 // s
	putOps, putPieces    float64
	calls, wire, server  map[string]float64
	callS                map[string]float64 // s, whole call spans
	corecPut, encodeSelf float64            // s
	backend              map[string]float64
	backendS, backendMiB float64
	tierSelf             float64 // s
	unlinked             float64
}

// addSpans links one traced run's spans and adds their self times and
// counts to t.
func (t *layerTotals) addSpans(spans []span) {
	t.unlinked += float64(link(spans))
	self := selfTimes(spans)
	handlerTime := make([]int64, len(spans)) // per call: its handler's duration
	backendKids := make(map[int][]int)
	for i, s := range spans {
		if s.parent < 0 {
			continue
		}
		switch s.layer {
		case layerHandle:
			handlerTime[s.parent] += s.dur()
		case layerBackend:
			backendKids[s.parent] = append(backendKids[s.parent], i)
		}
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	for i, s := range spans {
		switch s.layer {
		case layerOp:
			switch s.kind {
			case "PutWithLog":
				t.putSelf += sec(self[i])
				t.putOps++
			case "GetWithLog":
				t.getSelf += sec(self[i])
			}
		case layerCall:
			t.calls[s.kind]++
			t.callS[s.kind] += sec(s.dur())
			t.wire[s.kind] += sec(s.dur() - handlerTime[i])
			if s.kind == "PutReq" && s.parent >= 0 && spans[s.parent].kind == "PutWithLog" {
				t.putPieces++
			}
		case layerHandle:
			t.server[s.kind] += sec(self[i])
			if kids := backendKids[i]; len(kids) > 0 {
				// The tier's own work between its first and last backend
				// call in this request: record sealing, manifest encoding.
				first, last := spans[kids[0]].start, spans[kids[0]].end
				for _, k := range kids {
					first, last = min(first, spans[k].start), max(last, spans[k].end)
				}
				window := span{start: first, end: last}
				t.tierSelf += sec(window.dur() - covered(window, spans, kids))
			}
		case layerCorec:
			if s.kind == "Put" {
				t.corecPut += sec(s.dur())
				t.encodeSelf += sec(self[i])
			}
		case layerBackend:
			t.backend[s.kind]++
			t.backendS += sec(s.dur())
			if s.kind == "write" {
				t.backendMiB += float64(s.bytes) / mib
			}
		}
	}
}

// layerMetrics reports the per-layer metrics, each per workflow run
// (mean over the traced runs), and the tracing overhead against the
// untraced runs' median workflow time.
func layerMetrics(fx *fixture, plain, traced []*runResult, res result) map[string]metric {
	t := layerTotals{calls: map[string]float64{}, callS: map[string]float64{}, wire: map[string]float64{}, server: map[string]float64{}, backend: map[string]float64{}}
	var sum runResult
	var verify, replica, ecBytes float64
	var wfTraced, wfPlain []float64
	for _, r := range plain {
		wfPlain = append(wfPlain, r.workflow.Seconds())
	}
	for _, r := range traced {
		t.addSpans(r.spans)
		wfTraced = append(wfTraced, r.workflow.Seconds())
		verify += r.verify.Seconds()
		replica += r.replicaAvg
		ecBytes += float64(r.ecBytes)
		sum.stats.SuppressedPuts += r.stats.SuppressedPuts
		sum.stats.ReplayGets += r.stats.ReplayGets
		sum.stats.GCFreedBytes += r.stats.GCFreedBytes
		sum.stats.PutNanos += r.stats.PutNanos
		sum.tierSt.Spills += r.tierSt.Spills
		sum.tierSt.SpillBytes += r.tierSt.SpillBytes
		sum.tierSt.Promotes += r.tierSt.Promotes
		sum.qosSt.Admits += r.qosSt.Admits
		sum.qosSt.Sheds += r.qosSt.Sheds
		sum.tcpGob += r.tcpGob
		sum.tcpFast += r.tcpFast
		sum.tcpBytes += r.tcpBytes
	}
	n := float64(max(len(traced), 1))
	per := func(v float64) float64 { return v / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	count := func(v float64) metric { return metric{Value: per(v), Unit: "count"} }
	secs := func(v float64) metric { return metric{Value: per(v), Unit: "s"} }
	ms := map[string]metric{
		"staging.client.put_self_s":     secs(t.putSelf),
		"staging.client.get_self_s":     secs(t.getSelf),
		"staging.client.pieces_per_put": {Value: ratio(t.putPieces, t.putOps), Unit: "count"},
		"transport.gob_payloads":        count(float64(sum.tcpGob)),
		"transport.fastpath_hits":       count(float64(sum.tcpFast)),
		"transport.bytes_out":           {Value: per(float64(sum.tcpBytes)), Unit: "B"},
		"staging.server.put_nanos":      {Value: per(float64(sum.stats.PutNanos)), Unit: "ns"},
		"staging.gc_freed_mib":          {Value: per(float64(sum.stats.GCFreedBytes) / mib), Unit: "MiB"},
		"staging.suppressed_puts":       count(float64(sum.stats.SuppressedPuts)),
		"staging.replay_gets":           count(float64(sum.stats.ReplayGets)),
		"wlog.repl_calls_per_put":       {Value: ratio(t.calls["ReplApplyReq"], t.calls["PutReq"]), Unit: "ratio"},
		"wlog.repl_s":                   secs(t.callS["ReplApplyReq"]),
		"wlog.replica_mib":              {Value: per(replica), Unit: "MiB"},
		"corec.put_s":                   secs(t.corecPut),
		"corec.encode_self_s":           secs(t.encodeSelf),
		"corec.encode_mib_s":            {Value: ratio(ecBytes/mib, t.encodeSelf), Unit: "MiB/s"},
		"tier.spills":                   count(float64(sum.tierSt.Spills)),
		"tier.spill_mib":                {Value: per(float64(sum.tierSt.SpillBytes) / mib), Unit: "MiB"},
		"tier.promotes":                 count(float64(sum.tierSt.Promotes)),
		"tier.backend_writes":           count(t.backend["write"]),
		"tier.backend_renames":          count(t.backend["rename"]),
		"tier.backend_reads":            count(t.backend["read"]),
		"tier.backend_write_mib":        {Value: per(t.backendMiB), Unit: "MiB"},
		"tier.backend_s":                secs(t.backendS),
		"tier.writes_per_spill":         {Value: ratio(t.backend["write"], float64(sum.tierSt.Spills)), Unit: "ratio"},
		"tier.write_amp":                {Value: ratio(t.backendMiB, float64(sum.tierSt.SpillBytes)/mib), Unit: "ratio"},
		"tier.self_s":                   secs(t.tierSelf),
		"qos.admits":                    count(float64(sum.qosSt.Admits)),
		"qos.sheds":                     count(float64(sum.qosSt.Sheds)),
		"bench.gen_s":                   {Value: fx.gen.Seconds(), Unit: "s"},
		"bench.verify_s":                secs(verify),
		"bench.trace_overhead_frac":     {Value: ratio(quantile(wfTraced, 0.5), quantile(wfPlain, 0.5)) - 1, Unit: "frac"},
		"bench.ops_failed_frac":         {Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "frac"},
		"bench.unlinked_spans":          count(t.unlinked),
	}
	for _, k := range msgKinds {
		ms["transport.calls."+k] = count(t.calls[k])
		ms["transport.wire_s."+k] = secs(t.wire[k])
		ms["staging.server.self_s."+k] = secs(t.server[k])
	}
	return ms
}
