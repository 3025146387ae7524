package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gospaces/internal/staging"
	"gospaces/internal/tier"
	"gospaces/internal/transport"
)

// Span layers, one per boundary the benchmark can see from outside the
// program.
const (
	layerOp      = "op"      // a rank's staging API call (PutWithLog, ...)
	layerCorec   = "corec"   // a corec.Client call
	layerCall    = "call"    // one transport Call, client side
	layerHandle  = "handle"  // one server handler invocation
	layerBackend = "backend" // one tier.Backend call
)

// span is one timed interval at a layer boundary. parent is the index
// of the span that caused it, or -1 when it is not yet known (a server
// handler running on a different goroutine from its caller).
type span struct {
	parent int
	layer  string
	kind   string // API call, message kind or backend operation
	rank   string // issuing rank ("" for server-originated calls)
	addr   string // server address for call and handle spans
	start  int64  // nanoseconds since the recorder started
	end    int64
	bytes  int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory for one traced run. A span's parent is
// the innermost span still open on the same goroutine; calls whose
// handler runs elsewhere are linked afterwards by link. A nil recorder
// records nothing, so untraced runs pay one nil check per boundary.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  map[uintptr][]int // goroutine -> stack of open span indices
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: make(map[uintptr][]int)}
}

func (r *recorder) begin(layer, kind, rank, addr string) int {
	if r == nil {
		return -1
	}
	g := curg()
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	st := r.open[g]
	if len(st) > 0 {
		parent = st[len(st)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{parent: parent, layer: layer, kind: kind, rank: rank, addr: addr, start: now})
	r.open[g] = append(st, id)
	return id
}

// end closes span id, which must be the innermost open span of the
// calling goroutine.
func (r *recorder) end(id int, bytes int64) {
	if r == nil || id < 0 {
		return
	}
	g := curg()
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = now
	r.spans[id].bytes = bytes
	st := r.open[g]
	if n := len(st); n > 0 && st[n-1] == id {
		st = st[:n-1]
	}
	if len(st) == 0 {
		delete(r.open, g)
	} else {
		r.open[g] = st
	}
}

// take returns the recorded spans and resets the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// msgKind names a staging message, looking through the epoch and
// fencing envelopes, and returns the issuing rank the message carries.
func msgKind(req any) (kind, app string) {
	for {
		switch r := req.(type) {
		case staging.EpochReq:
			req = r.Req
			continue
		case staging.FencedReq:
			req = r.Req
			continue
		case staging.PutReq:
			app = r.App
		case staging.GetReq:
			app = r.App
		case staging.CheckpointReq:
			app = r.App
		case staging.RecoveryReq:
			app = r.App
		}
		return strings.TrimPrefix(fmt.Sprintf("%T", req), "staging."), app
	}
}

// tracedTransport records a call span for every Call made through it
// and a handle span for every request its listeners serve. Each rank
// dials through its own instance (rank set), so a call's parent is that
// rank's current operation; the group's instance (rank "") carries the
// servers' own calls, such as log replication.
type tracedTransport struct {
	inner transport.Transport
	rec   *recorder
	rank  string
}

func (t *tracedTransport) Listen(addr string, h transport.Handler) (io.Closer, error) {
	var bound atomic.Value
	bound.Store(addr)
	closer, err := t.inner.Listen(addr, func(req any) (any, error) {
		kind, app := msgKind(req)
		id := t.rec.begin(layerHandle, kind, app, bound.Load().(string))
		resp, err := h(req)
		t.rec.end(id, 0)
		return resp, err
	})
	if err != nil {
		return nil, err
	}
	if a, ok := closer.(interface{ Addr() string }); ok {
		bound.Store(a.Addr())
	}
	return closer, nil
}

func (t *tracedTransport) Dial(addr string) (transport.Client, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tracedClient{inner: c, t: t, addr: addr}, nil
}

type tracedClient struct {
	inner transport.Client
	t     *tracedTransport
	addr  string
}

func (c *tracedClient) Call(req any) (any, error) {
	kind, _ := msgKind(req)
	id := c.t.rec.begin(layerCall, kind, c.t.rank, c.addr)
	resp, err := c.inner.Call(req)
	c.t.rec.end(id, 0)
	return resp, err
}

func (c *tracedClient) Close() error { return c.inner.Close() }

// tracedBackend records a span for every tier backend call of one
// server; the server's handler is the parent, on the same goroutine.
type tracedBackend struct {
	inner tier.Backend
	rec   *recorder
}

func (b *tracedBackend) Write(name string, data []byte) error {
	id := b.rec.begin(layerBackend, "write", "", "")
	err := b.inner.Write(name, data)
	b.rec.end(id, int64(len(data)))
	return err
}

func (b *tracedBackend) Read(name string) ([]byte, bool) {
	id := b.rec.begin(layerBackend, "read", "", "")
	data, ok := b.inner.Read(name)
	b.rec.end(id, int64(len(data)))
	return data, ok
}

func (b *tracedBackend) Rename(old, new string) error {
	id := b.rec.begin(layerBackend, "rename", "", "")
	err := b.inner.Rename(old, new)
	b.rec.end(id, 0)
	return err
}

func (b *tracedBackend) List(prefix string) []string {
	id := b.rec.begin(layerBackend, "list", "", "")
	out := b.inner.List(prefix)
	b.rec.end(id, 0)
	return out
}

func (b *tracedBackend) Delete(name string) {
	id := b.rec.begin(layerBackend, "delete", "", "")
	b.inner.Delete(name)
	b.rec.end(id, 0)
}

// link gives every parentless handle span its call span: the call to
// the same address, of the same kind, from the rank the request names
// (any rank when it names none), whose interval contains the handler's.
// A staging client has one call in flight, so the match is unique per
// rank; a handler with no match, or more than one, stays unlinked and
// is counted in the returned total.
func link(spans []span) (unlinked int) {
	type key struct{ addr, kind string }
	calls := make(map[key][]int)
	for i, s := range spans {
		if s.layer == layerCall {
			k := key{s.addr, s.kind}
			calls[k] = append(calls[k], i)
		}
	}
	for i := range spans {
		h := &spans[i]
		if h.layer != layerHandle || h.parent >= 0 {
			continue
		}
		match := -1
		for _, c := range calls[key{h.addr, h.kind}] {
			cs := spans[c]
			if h.rank != "" && cs.rank != h.rank {
				continue
			}
			if cs.start > h.start || cs.end < h.end {
				continue
			}
			if match >= 0 {
				match = -2
				break
			}
			match = c
		}
		if match < 0 {
			unlinked++
			continue
		}
		h.parent = match
		if h.rank == "" {
			h.rank = spans[match].rank
		}
	}
	return unlinked
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover (overlapping children are counted once, and a
// child's time outside its parent is not subtracted).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, p.start), min(spans[k].end, p.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.a > cur.b {
			if cur.b > cur.a {
				total += cur.b - cur.a
			}
			cur = v
		} else if v.b > cur.b {
			cur.b = v.b
		}
	}
	if cur.b > cur.a {
		total += cur.b - cur.a
	}
	return total
}
