package transport

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"gospaces/internal/failure"
)

// Chaos is a fault-injecting middleware Transport: it wraps any inner
// Transport and perturbs the client side with call latency, dropped
// responses, connection kills, and per-server blackouts. Faults come
// from two sources: a deterministic seeded schedule (Apply, fed by
// failure.Draw) and optional per-call probabilistic faults
// (SetCallFaults). The server side can inject handler latency and
// hangs (SetServeFaults), which stagingd exposes as flags so clients
// can be tested against a live faulty daemon.
//
// Dropped responses are modelled after the receive: the inner call
// completes (the server did the work) and Chaos discards the result,
// returning ErrTimeout — exactly what a client sees when the response
// frame is lost. Blackouts fail calls and dials with ErrNoEndpoint, the
// same class a crashed-and-restarting server produces.
//
// With the multiplexed TCP transport each Call maps to exactly one
// request frame and one response frame, so these call-scoped faults are
// frame-scoped: concurrent calls sharing a connection are delayed and
// dropped independently, while KillConns/FailStop break the shared
// stream and hit every in-flight frame at once — the two fault
// granularities the mux design distinguishes.
type Chaos struct {
	inner Transport

	mu      sync.Mutex
	rng     *rand.Rand
	start   time.Time
	windows map[int][]chaosWindow // keyed by server id
	addrs   map[string]int        // addr -> server id for Apply schedules
	clients map[string][]*chaosClient

	// per-call probabilistic faults (client side)
	delayProb float64
	delay     time.Duration
	dropProb  float64

	// server-side handler faults
	serveDelayProb float64
	serveDelay     time.Duration
	serveHangProb  float64
	serveHang      time.Duration
}

type chaosWindow struct {
	from, until time.Duration // relative to start
	kind        failure.Kind
	delay       time.Duration
}

// NewChaos wraps inner with a fault injector seeded for deterministic
// probabilistic faults. With no faults armed it is a transparent proxy.
func NewChaos(inner Transport, seed int64) *Chaos {
	return &Chaos{
		inner:   inner,
		rng:     rand.New(rand.NewSource(seed)),
		start:   time.Now(),
		windows: make(map[int][]chaosWindow),
		addrs:   make(map[string]int),
		clients: make(map[string][]*chaosClient),
	}
}

// SetCallFaults arms client-side probabilistic faults: each call is
// delayed by delay with probability delayProb and its response dropped
// (ErrTimeout after the server processed it) with probability dropProb.
func (c *Chaos) SetCallFaults(delayProb float64, delay time.Duration, dropProb float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delayProb, c.delay, c.dropProb = delayProb, delay, dropProb
}

// SetServeFaults arms server-side handler faults: each handled request
// is delayed by delay with probability delayProb, and hangs for hang
// with probability hangProb (long enough hangs turn into client
// timeouts, i.e. dropped responses as seen from the wire).
func (c *Chaos) SetServeFaults(delayProb float64, delay time.Duration, hangProb float64, hang time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.serveDelayProb, c.serveDelay = delayProb, delay
	c.serveHangProb, c.serveHang = hangProb, hang
}

// Apply arms a failure schedule: injections with network/server kinds
// become fault windows anchored at time.Now(). addrs maps staging
// server ids (Injection.Server) to transport addresses, in id order;
// RankFailStop entries are ignored (the workflow layer owns those).
func (c *Chaos) Apply(sched failure.Schedule, addrs []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.start = time.Now()
	c.windows = make(map[int][]chaosWindow)
	// Rebuild the mapping from scratch: stale addr→id entries from a
	// previous Apply (or ids synthesized by Blackout) must not route the
	// new windows to the wrong address.
	c.addrs = make(map[string]int)
	for id, a := range addrs {
		c.addrs[a] = id
	}
	for _, inj := range sched {
		if inj.Kind == failure.RankFailStop {
			continue
		}
		if inj.Server < 0 || inj.Server >= len(addrs) {
			continue
		}
		w := chaosWindow{from: inj.At, until: inj.At + inj.Duration, kind: inj.Kind}
		if inj.Kind == failure.NetDelay {
			w.delay = inj.Duration / 4 // injected latency per call
		}
		if inj.Kind == failure.ServerFailStop {
			// Permanent fail-stop: the window never closes.
			w.until = permanent
		}
		c.windows[inj.Server] = append(c.windows[inj.Server], w)
	}
}

// permanent is the window end of a fail-stop: far enough in the future
// that it never expires within a run.
const permanent = time.Duration(math.MaxInt64)

// FailStop permanently blacks out addr, as a ServerFailStop would: every
// dial and call fails with ErrNoEndpoint and the address never recovers.
// Live connections are killed so in-flight calls fail promptly.
func (c *Chaos) FailStop(addr string) {
	c.mu.Lock()
	id, ok := c.addrs[addr]
	if !ok {
		id = len(c.addrs) + 1000 // synthesize an id for manual targets
		c.addrs[addr] = id
	}
	now := time.Since(c.start)
	c.windows[id] = append(c.windows[id], chaosWindow{from: now, until: permanent, kind: failure.ServerFailStop})
	c.mu.Unlock()
	c.KillConns(addr)
}

// Blackout manually blacks out addr for d, as a ServerCrash would.
func (c *Chaos) Blackout(addr string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.addrs[addr]
	if !ok {
		id = len(c.addrs) + 1000 // synthesize an id for manual targets
		c.addrs[addr] = id
	}
	now := time.Since(c.start)
	c.windows[id] = append(c.windows[id], chaosWindow{from: now, until: now + d, kind: failure.ServerCrash})
}

// KillConns aborts every live connection to addr: in-flight calls fail
// with ErrConnBroken and the clients re-dial on their next call.
func (c *Chaos) KillConns(addr string) {
	c.mu.Lock()
	conns := append([]*chaosClient(nil), c.clients[addr]...)
	c.mu.Unlock()
	for _, cc := range conns {
		cc.abort()
	}
}

// faults evaluates the active fault state for one call to addr.
func (c *Chaos) faults(addr string) (black bool, delay time.Duration, drop bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Since(c.start)
	if id, ok := c.addrs[addr]; ok {
		for _, w := range c.windows[id] {
			if now < w.from || now >= w.until {
				continue
			}
			switch w.kind {
			case failure.ServerCrash, failure.ServerFailStop:
				black = true
			case failure.NetDelay:
				delay += w.delay
			case failure.NetDrop:
				drop = true
			}
		}
	}
	if c.delayProb > 0 && c.rng.Float64() < c.delayProb {
		delay += c.delay
	}
	if c.dropProb > 0 && c.rng.Float64() < c.dropProb {
		drop = true
	}
	return black, delay, drop
}

// Listen implements Transport; the handler is wrapped with the armed
// server-side faults.
func (c *Chaos) Listen(addr string, h Handler) (io.Closer, error) {
	wrapped := func(req any) (any, error) {
		c.mu.Lock()
		var sleep time.Duration
		if c.serveDelayProb > 0 && c.rng.Float64() < c.serveDelayProb {
			sleep += c.serveDelay
		}
		if c.serveHangProb > 0 && c.rng.Float64() < c.serveHangProb {
			sleep += c.serveHang
		}
		c.mu.Unlock()
		if sleep > 0 {
			time.Sleep(sleep)
		}
		return h(req)
	}
	return c.inner.Listen(addr, wrapped)
}

// Dial implements Transport. Dialing a blacked-out address fails with
// ErrNoEndpoint, like a crashed server.
func (c *Chaos) Dial(addr string) (Client, error) {
	if black, _, _ := c.faults(addr); black {
		return nil, fmt.Errorf("%w: %q: chaos blackout", ErrNoEndpoint, addr)
	}
	inner, err := c.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	cc := &chaosClient{c: c, addr: addr, inner: inner}
	c.mu.Lock()
	c.clients[addr] = append(c.clients[addr], cc)
	c.mu.Unlock()
	return cc, nil
}

type chaosClient struct {
	c     *Chaos
	addr  string
	inner Client
}

func (cc *chaosClient) Call(req any) (any, error) {
	black, delay, drop := cc.c.faults(cc.addr)
	if black {
		return nil, fmt.Errorf("%w: %q: chaos blackout", ErrNoEndpoint, cc.addr)
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	resp, err := cc.inner.Call(req)
	if err != nil {
		return resp, err
	}
	if drop {
		return nil, fmt.Errorf("%w: %q: chaos dropped response", ErrTimeout, cc.addr)
	}
	return resp, nil
}

// abort kills the underlying connection if the inner client supports it
// (the TCP client does); in-proc clients have no connection to kill.
func (cc *chaosClient) abort() {
	if a, ok := cc.inner.(interface{ Abort() }); ok {
		a.Abort()
	}
}

func (cc *chaosClient) Close() error {
	cc.c.mu.Lock()
	live := cc.c.clients[cc.addr]
	for i, other := range live {
		if other == cc {
			cc.c.clients[cc.addr] = append(live[:i], live[i+1:]...)
			break
		}
	}
	cc.c.mu.Unlock()
	return cc.inner.Close()
}
