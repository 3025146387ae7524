package staging

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"gospaces/internal/health"
	"gospaces/internal/transport"
)

// Group is a running set of staging servers plus the Pool clients use
// to reach them, an epoch-stamped Membership naming the live server
// set, and an optional pool of warm spares the recovery supervisor can
// promote after a fail-stop.
type Group struct {
	*Pool
	tr         transport.Transport
	prefix     string
	membership *health.Membership

	mu      sync.Mutex
	addrs   []string
	servers []*Server
	closers []io.Closer
	spares  []spareEntry
	// assigned maps a dead membership slot to the spare drawn for its
	// promotion. The assignment is idempotent (TakeSpareFor returns the
	// same spare until the promotion commits or the spare is returned),
	// which is what lets a recovery-leader takeover resume a half-done
	// promotion without double-spending a second spare on the slot.
	assigned map[int]spareEntry
	spareSeq int // monotonic spare address counter (survives returns)
}

// spareEntry is one warm spare: a running, empty server outside the
// membership, listening and answering pings until promoted.
type spareEntry struct {
	srv    *Server
	addr   string
	closer io.Closer
}

// StartGroup launches cfg.NServers staging servers on tr at addresses
// "<prefix>/<id>" and returns the group handle.
func StartGroup(tr transport.Transport, prefix string, cfg Config) (*Group, error) {
	g := &Group{tr: tr, prefix: prefix, servers: make([]*Server, cfg.NServers), closers: make([]io.Closer, cfg.NServers)}
	addrs := make([]string, cfg.NServers)
	for i := 0; i < cfg.NServers; i++ {
		srv := NewServer(i)
		srv.SetMemoryBudget(cfg.MemoryBudgetPerServer)
		if cfg.QoS != nil {
			srv.EnableQoS(*cfg.QoS)
		}
		if cfg.TierBackend != nil {
			srv.EnableTier(cfg.TierBackend(i), cfg.TierWatermark)
		}
		// A prefix containing ":" is a TCP host:port (use ":0" for
		// ephemeral ports); otherwise addresses are "<prefix>/<id>".
		addr := fmt.Sprintf("%s/%d", prefix, i)
		if strings.Contains(prefix, ":") {
			addr = prefix
		}
		closer, err := tr.Listen(addr, srv.Handle)
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("staging: start server %d: %w", i, err)
		}
		// Transports with dynamic binding report the real address.
		if a, ok := closer.(interface{ Addr() string }); ok {
			addr = a.Addr()
		}
		srv.SetAddr(addr)
		srv.EnableReplication(tr, cfg.WlogReplicas)
		g.servers[i] = srv
		g.closers[i] = closer
		addrs[i] = addr
	}
	g.addrs = addrs
	pool, err := NewPool(tr, addrs, cfg)
	if err != nil {
		g.Close()
		return nil, err
	}
	g.Pool = pool
	g.membership = health.NewMembership(addrs)
	// Seed every member with the initial view so epoch-stamped calls
	// (epoch 1) pass and MembershipReq answers are useful from the start.
	for _, srv := range g.servers {
		srv.SetMembership(1, addrs)
	}
	return g, nil
}

// Membership returns the group's epoch-stamped server set. Exactly one
// writer — the recovery supervisor — should bump it.
func (g *Group) Membership() *health.Membership { return g.membership }

// AddSpare starts a warm spare server outside the membership: running
// and answering pings at "<prefix>/spare/<n>", but holding no data and
// receiving no client traffic until the recovery supervisor promotes
// it. It returns the spare's address.
func (g *Group) AddSpare() (string, error) {
	g.mu.Lock()
	n := g.spareSeq
	g.spareSeq++
	id := len(g.servers) + n // spare keeps its own id; slots are bound by address
	g.mu.Unlock()
	srv := NewServer(id)
	srv.SetSpare(true)
	srv.SetMemoryBudget(g.Pool.cfg.MemoryBudgetPerServer)
	if g.Pool.cfg.QoS != nil {
		// A promoted spare serves under the same admission policy; its
		// per-tenant usage is inherited at promotion when the wlog
		// restore rebases the accounting from the restored content.
		srv.EnableQoS(*g.Pool.cfg.QoS)
	}
	if g.Pool.cfg.TierBackend != nil {
		// The spare gets its own tier store; a promotion resets it before
		// the wlog restore repopulates staging RAM.
		srv.EnableTier(g.Pool.cfg.TierBackend(id), g.Pool.cfg.TierWatermark)
	}
	addr := fmt.Sprintf("%s/spare/%d", g.prefix, n)
	if strings.Contains(g.prefix, ":") {
		addr = g.prefix
	}
	closer, err := g.tr.Listen(addr, srv.Handle)
	if err != nil {
		return "", fmt.Errorf("staging: start spare %d: %w", n, err)
	}
	if a, ok := closer.(interface{ Addr() string }); ok {
		addr = a.Addr()
	}
	srv.SetAddr(addr)
	// Spares replicate too once promoted into the membership; until then
	// their slot is unresolved and the replicator stays idle.
	srv.EnableReplication(g.tr, g.Pool.cfg.WlogReplicas)
	g.mu.Lock()
	g.spares = append(g.spares, spareEntry{srv: srv, addr: addr, closer: closer})
	g.mu.Unlock()
	return addr, nil
}

// TakeSpare pops the next warm spare for promotion, returning its
// address. It is the legacy non-idempotent draw; the recovery
// supervisor uses TakeSpareFor so a resumed promotion re-reads the
// same assignment.
func (g *Group) TakeSpare() (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.takeLocked()
}

func (g *Group) takeLocked() (string, bool) {
	if len(g.spares) == 0 {
		return "", false
	}
	e := g.spares[0]
	g.spares = g.spares[1:]
	// The spare stays tracked for inspection and Close; its listener now
	// serves member traffic.
	g.servers = append(g.servers, e.srv)
	g.closers = append(g.closers, e.closer)
	g.addrs = append(g.addrs, e.addr)
	return e.addr, true
}

// TakeSpareFor draws a spare for the promotion of a dead membership
// slot. The draw is idempotent: until CommitSpare or ReturnSpare, the
// slot keeps the same spare, so a recovery-leader takeover that
// resumes a half-done promotion gets the spare the deposed leader
// already spent — never a second one. The recovery supervisor draws
// its spares here.
func (g *Group) TakeSpareFor(slot int) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e, ok := g.assigned[slot]; ok {
		return e.addr, true
	}
	if len(g.spares) == 0 {
		return "", false
	}
	e := g.spares[0]
	if _, ok := g.takeLocked(); !ok {
		return "", false
	}
	if g.assigned == nil {
		g.assigned = make(map[int]spareEntry)
	}
	g.assigned[slot] = e
	return e.addr, true
}

// ReturnSpare puts the spare assigned to slot back in the pool — the
// promotion failed before the spare entered the membership (log
// restore or membership write failed). It reports whether a spare was
// actually returned.
func (g *Group) ReturnSpare(slot int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.assigned[slot]
	if !ok {
		return false
	}
	delete(g.assigned, slot)
	// Undo the member tracking takeLocked added (search from the end:
	// spares append after the original members).
	for i := len(g.addrs) - 1; i >= 0; i-- {
		if g.addrs[i] == e.addr {
			g.addrs = append(g.addrs[:i], g.addrs[i+1:]...)
			g.servers = append(g.servers[:i], g.servers[i+1:]...)
			g.closers = append(g.closers[:i], g.closers[i+1:]...)
			break
		}
	}
	g.spares = append(g.spares, e)
	return true
}

// CommitSpare finalizes the promotion of slot: the assignment is
// dropped, so a later death of the same slot draws a fresh spare.
func (g *Group) CommitSpare(slot int) {
	g.mu.Lock()
	delete(g.assigned, slot)
	g.mu.Unlock()
}

// SparesConsumed reports how many spares have been permanently drawn
// from the pool (taken and not returned) — the nemesis harness's
// no-double-spend invariant counts it against the number of deaths.
func (g *Group) SparesConsumed() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.spareSeq - len(g.spares)
}

// Spares returns the addresses of the remaining unpromoted spares.
func (g *Group) Spares() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, len(g.spares))
	for i, e := range g.spares {
		out[i] = e.addr
	}
	return out
}

// FailStop permanently kills server id: its listener closes, so every
// call and dial to its address fails, and its object, log, and shard
// state is unreachable for good — the real fail-stop the recovery
// supervisor exists to repair (unlike ReplaceServer, nothing comes back
// at the old address).
func (g *Group) FailStop(id int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 || id >= len(g.closers) {
		return fmt.Errorf("staging: no server %d", id)
	}
	err := g.closers[id].Close()
	g.closers[id] = nopCloser{} // Close must not re-close the dead listener
	return err
}

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// ReplaceServer simulates losing staging server id and bringing up an
// empty replacement at the same address: all object, log, and shard
// state on that server is gone. Clients keep working through the same
// address; shard data protected by the resilience layer
// (internal/corec) is recoverable with Rebuild, and object data is
// recoverable from producers via the crash-consistency protocol.
func (g *Group) ReplaceServer(id int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 || id >= len(g.servers) {
		return fmt.Errorf("staging: no server %d", id)
	}
	if err := g.closers[id].Close(); err != nil {
		return fmt.Errorf("staging: stop server %d: %w", id, err)
	}
	srv := NewServer(id)
	closer, err := g.tr.Listen(g.addrs[id], srv.Handle)
	if err != nil {
		return fmt.Errorf("staging: restart server %d: %w", id, err)
	}
	g.servers[id] = srv
	g.closers[id] = closer
	return nil
}

// Server returns the id-th server (for in-proc inspection in tests).
// Promoted spares append after the original members in promotion order.
func (g *Group) Server(id int) *Server {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.servers[id]
}

// ServerAt returns the server currently listening at addr (nil if
// none) — the way tests inspect a promoted spare by its membership
// slot address.
func (g *Group) ServerAt(addr string) *Server {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, a := range g.addrs {
		if a == addr {
			return g.servers[i]
		}
	}
	for _, e := range g.spares {
		if e.addr == addr {
			return e.srv
		}
	}
	return nil
}

// Addrs returns the servers' original bound addresses in id order (the
// chaos transport targets faults by address); the Pool holds the
// post-promotion view.
func (g *Group) Addrs() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.addrs...)
}

// Close stops all servers, including unpromoted spares.
func (g *Group) Close() error {
	g.mu.Lock()
	closers := append([]io.Closer(nil), g.closers...)
	servers := append([]*Server(nil), g.servers...)
	for _, e := range g.spares {
		closers = append(closers, e.closer)
		servers = append(servers, e.srv)
	}
	g.mu.Unlock()
	for _, srv := range servers {
		if srv != nil {
			srv.StopReplication()
		}
	}
	var first error
	for _, c := range closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
