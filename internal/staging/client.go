package staging

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gospaces/internal/dht"
	"gospaces/internal/domain"
	"gospaces/internal/qos"
	"gospaces/internal/tier"
	"gospaces/internal/trace"
	"gospaces/internal/transport"
)

// ErrDegraded reports that a staging server stayed unreachable past the
// transport's retry policy: the call was a transport-level fault
// (timeout, broken connection, missing endpoint), not a server-side
// rejection. Callers can distinguish "staging degraded, try later or
// fail over" from protocol errors via errors.Is.
var ErrDegraded = errors.New("staging: degraded: server unreachable")

// ErrSlotDown reports that a membership slot is confirmed dead with no
// spare left to promote: the recovery supervisor has the slot in its
// dead-unrecovered backlog and will heal it when the spare pool is
// refilled (AddSpare) or the server rejoins. Unlike ErrDegraded — a
// transient transport verdict — ErrSlotDown is an authoritative
// supervisor verdict, surfaced immediately instead of after a retry
// storm against a dead address.
var ErrSlotDown = errors.New("staging: slot down: dead with no spare, awaiting pool refill")

// wrapCall classifies a failed server call: transient transport faults
// that survived the retry layer surface as ErrDegraded, everything else
// stays a plain staging error.
func wrapCall(err error, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if transport.Retryable(err) {
		return fmt.Errorf("%w: %s: %w", ErrDegraded, msg, err)
	}
	return fmt.Errorf("staging: %s: %w", msg, err)
}

// respAs narrows a transport response to its expected concrete type; a
// mismatch is reported as an error rather than panicking the rank.
func respAs[T any](raw any, op string) (T, error) {
	v, ok := raw.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("staging: %s: bad response type %T", op, raw)
	}
	return v, nil
}

// Config describes a staging server group.
type Config struct {
	// Global is the data domain the group indexes.
	Global domain.BBox
	// NServers is the number of staging servers.
	NServers int
	// Bits is the DHT refinement (cells per dimension = 1<<Bits).
	Bits int
	// ElemSize is the byte width of one grid cell.
	ElemSize int
	// Curve selects the space-filling curve ordering cells across
	// servers (default Z-order; Hilbert trades code cost for locality).
	Curve dht.Curve
	// MemoryBudgetPerServer caps each server's resident object bytes
	// (0 = unlimited). A put that would exceed the budget first runs
	// garbage collection; if the log still needs the space, the put is
	// rejected with a budget error — staging memory is a hard resource
	// on real machines.
	MemoryBudgetPerServer int64
	// WlogReplicas is the number of peer servers each server ships its
	// event-log mutations to (K membership successors). 0 disables log
	// replication: the recovery metadata then dies with its server.
	WlogReplicas int
	// QoS, when non-nil, enables multi-tenant admission control and the
	// weighted two-lane scheduler on every server (and spare) of the
	// group. nil (the default) serves all traffic unconditionally.
	QoS *qos.Config
	// TierBackend, when non-nil, gives each server (and spare) a PFS
	// cold-tier backend keyed by server id: cold logged versions demote
	// to it at the spill watermark instead of shedding, and replay reads
	// promote them back transparently. nil disables the tier.
	TierBackend func(id int) tier.Backend
	// TierWatermark is the fraction of the memory budget above which
	// puts demote cold versions (<= 0 picks the QoS SpillWater, else the
	// package default).
	TierWatermark float64
}

// Pool is a client-side view of a staging group: the spatial index plus
// the epoch-stamped server addresses. The address set is mutable — the
// recovery supervisor re-points a slot at a promoted spare via
// SetMember, and clients that hit a StaleEpochError adopt the servers'
// newer view — so all access goes through the mutex.
type Pool struct {
	cfg   Config
	index *dht.Index
	tr    transport.Transport

	// mu guards the membership view: the slot addresses, the epoch
	// clients stamp their calls with, and the slots the recovery
	// supervisor has marked dead-unrecovered.
	mu    sync.Mutex
	addrs []string
	epoch uint64
	down  map[int]bool

	// cellMu guards cells, a lazily built cache of the sub-boxes each
	// server owns; the pool is shared by all of a component's clients.
	cellMu sync.Mutex
	cells  [][]domain.BBox
}

// NewPool builds a client-side pool for a running group. addrs must
// have cfg.NServers entries, in server-id order.
func NewPool(tr transport.Transport, addrs []string, cfg Config) (*Pool, error) {
	if len(addrs) != cfg.NServers {
		return nil, fmt.Errorf("staging: %d addrs for %d servers", len(addrs), cfg.NServers)
	}
	if cfg.ElemSize <= 0 {
		return nil, fmt.Errorf("staging: non-positive element size %d", cfg.ElemSize)
	}
	idx, err := dht.NewIndexCurve(cfg.Global, cfg.NServers, cfg.Bits, cfg.Curve)
	if err != nil {
		return nil, err
	}
	return &Pool{
		cfg:   cfg,
		index: idx,
		tr:    tr,
		addrs: append([]string(nil), addrs...),
		epoch: 1,
		cells: make([][]domain.BBox, cfg.NServers),
	}, nil
}

// Config returns the pool configuration.
func (p *Pool) Config() Config { return p.cfg }

// Epoch returns the membership epoch clients stamp their calls with.
func (p *Pool) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// Addrs returns the current slot addresses.
func (p *Pool) Addrs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.addrs...)
}

// SetMember points slot id at a new address under a bumped epoch; the
// recovery supervisor calls it after promoting a spare. Older epochs
// are ignored.
func (p *Pool) SetMember(id int, addr string, epoch uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if epoch < p.epoch || id < 0 || id >= len(p.addrs) {
		return
	}
	p.addrs[id] = addr
	p.epoch = epoch
	delete(p.down, id) // a promoted slot is reachable again
}

// MarkSlotDown records (down=true) or clears (down=false) the recovery
// supervisor's verdict that slot id is dead with no spare available.
// While marked, client calls touching the slot fail fast with
// ErrSlotDown instead of timing out against the dead address.
func (p *Pool) MarkSlotDown(id int, down bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id < 0 || id >= len(p.addrs) {
		return
	}
	if down {
		if p.down == nil {
			p.down = make(map[int]bool)
		}
		p.down[id] = true
		return
	}
	delete(p.down, id)
}

// SlotDown reports whether slot id is marked dead-unrecovered.
func (p *Pool) SlotDown(id int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down[id]
}

// adopt replaces the whole membership view when the servers hold a
// newer epoch (the client-side half of a stale-epoch redirect).
func (p *Pool) adopt(addrs []string, epoch uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if epoch <= p.epoch || len(addrs) != len(p.addrs) {
		return
	}
	p.addrs = append([]string(nil), addrs...)
	p.epoch = epoch
}

// serverCells returns (cached) the sub-boxes owned by server s.
func (p *Pool) serverCells(s int) []domain.BBox {
	p.cellMu.Lock()
	defer p.cellMu.Unlock()
	if p.cells[s] == nil {
		p.cells[s] = p.index.ServerCells(s)
	}
	return p.cells[s]
}

// Client is one application rank's connection to the staging group.
// A Client is not safe for concurrent use; create one per rank, as each
// rank's request stream must stay ordered for deterministic replay.
type Client struct {
	app   string
	pool  *Pool
	conns []transport.Client
	// addrs records the address each conn was dialled to, so a rebind
	// after a stale-epoch redirect only re-dials the slots that moved.
	addrs []string
	// lockSeq numbers this rank's lock operations so the lock server can
	// deduplicate retried requests (the client is per-rank and serial,
	// so a plain counter suffices).
	lockSeq uint64
	// CumulativeWriteTime accumulates client-observed put response
	// time, the Figure 9(a)/(b) metric.
	cumWrite time.Duration
}

// NewClient connects rank identity app (e.g. "sim/12") to the group.
// A slot that cannot be dialled — fail-stopped and not yet promoted —
// is left unbound: its calls fail with the (retryable) dial error until
// the call path's rebind dials the slot's current address.
func (p *Pool) NewClient(app string) (*Client, error) {
	c := &Client{
		app:   app,
		pool:  p,
		conns: make([]transport.Client, p.cfg.NServers),
		addrs: make([]string, p.cfg.NServers),
	}
	for i, addr := range p.Addrs() {
		conn, err := p.tr.Dial(addr)
		if err != nil {
			c.conns[i] = unbound{fmt.Errorf("staging: dial server %d: %w", i, err)}
			continue
		}
		c.conns[i] = conn
		c.addrs[i] = addr
	}
	return c, nil
}

// unbound stands in for a connection NewClient could not dial. Its
// empty address in Client.addrs makes every rebind re-dial the slot.
type unbound struct{ err error }

func (u unbound) Call(any) (any, error) { return nil, u.err }
func (unbound) Close() error            { return nil }

// App returns the client's component/rank identity.
func (c *Client) App() string { return c.app }

// Close releases the client's connections.
func (c *Client) Close() error {
	var first error
	for _, conn := range c.conns {
		if conn == nil {
			continue
		}
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Reconnect re-dials all servers at the pool's current addresses;
// workflow_restart uses it to rebuild the staging client after a
// component recovers (paper §III-C).
func (c *Client) Reconnect() error {
	for i, addr := range c.pool.Addrs() {
		if c.conns[i] != nil {
			c.conns[i].Close()
		}
		conn, err := c.pool.tr.Dial(addr)
		if err != nil {
			return fmt.Errorf("staging: re-dial server %d: %w", i, err)
		}
		c.conns[i] = conn
		c.addrs[i] = addr
	}
	return nil
}

// call sends one epoch-stamped request to server s. On a stale-epoch
// redirect — and on transport faults that outlived the retry layer,
// which is what calling a fail-stopped slot looks like — it re-binds
// (adopts the servers' newer membership, re-dials the slots that
// moved) and retries once. A second redirect (a promotion raced the
// retry) surfaces to the caller.
func (c *Client) call(s int, req any) (any, error) {
	if c.pool.SlotDown(s) {
		return nil, fmt.Errorf("%w: server %d", ErrSlotDown, s)
	}
	raw, err := c.conns[s].Call(EpochReq{Epoch: c.pool.Epoch(), Req: req})
	if err == nil {
		return raw, nil
	}
	stale := IsStaleEpoch(err)
	if !stale && !transport.Retryable(err) {
		return raw, err
	}
	if rerr := c.rebind(); rerr != nil {
		if stale {
			return nil, rerr
		}
		// Transient fault and no newer membership view: the original
		// error says more than the failed rebind.
		return raw, err
	}
	return c.conns[s].Call(EpochReq{Epoch: c.pool.Epoch(), Req: req})
}

// rebind refreshes the membership view from any reachable server and
// re-dials the connections whose slot address changed.
func (c *Client) rebind() error {
	var view MembershipResp
	got := false
	for s := range c.conns {
		raw, err := c.conns[s].Call(MembershipReq{})
		if err != nil {
			continue
		}
		if m, ok := raw.(MembershipResp); ok && m.Epoch > 0 && len(m.Addrs) == len(c.conns) {
			view = m
			got = true
			break
		}
	}
	if !got {
		return fmt.Errorf("%w: rebind: no server returned a membership view", ErrDegraded)
	}
	c.pool.adopt(view.Addrs, view.Epoch)
	for i, addr := range c.pool.Addrs() {
		if c.addrs[i] == addr && c.conns[i] != nil {
			continue
		}
		if c.conns[i] != nil {
			c.conns[i].Close()
		}
		conn, err := c.pool.tr.Dial(addr)
		if err != nil {
			return wrapCall(err, "rebind: re-dial server %d", i)
		}
		c.conns[i] = conn
		c.addrs[i] = addr
	}
	return nil
}

// CumulativeWriteTime returns the client-observed total put response
// time so far.
func (c *Client) CumulativeWriteTime() time.Duration { return c.cumWrite }

// put is the shared implementation of Put and PutWithLog.
func (c *Client) put(name string, version int64, bbox domain.BBox, data []byte, logged bool) error {
	if want := domain.BufLen(bbox, c.pool.cfg.ElemSize); len(data) != want {
		return fmt.Errorf("staging: put %q %v: buffer %d bytes, want %d", name, bbox, len(data), want)
	}
	start := time.Now()
	defer func() { c.cumWrite += time.Since(start) }()
	for _, s := range c.pool.index.ServersFor(bbox) {
		for _, cell := range c.pool.serverCells(s) {
			region, ok := cell.Intersect(bbox)
			if !ok {
				continue
			}
			piece := Piece{
				BBox: region,
				Data: domain.Extract(data, bbox, region, c.pool.cfg.ElemSize),
			}
			req := PutReq{
				App: c.app, Name: name, Version: version,
				ElemSize: c.pool.cfg.ElemSize, Piece: piece, Logged: logged,
			}
			if _, err := c.call(s, req); err != nil {
				return wrapCall(err, "put %q v%d to server %d", name, version, s)
			}
		}
	}
	return nil
}

// get is the shared implementation of Get and GetWithLog.
func (c *Client) get(name string, version int64, bbox domain.BBox, logged bool) ([]byte, int64, error) {
	dst := make([]byte, domain.BufLen(bbox, c.pool.cfg.ElemSize))
	resolved := int64(NoVersion)
	var covered int64
	for _, s := range c.pool.index.ServersFor(bbox) {
		req := GetReq{App: c.app, Name: name, Version: version, BBox: bbox, Logged: logged}
		raw, err := c.call(s, req)
		if err != nil {
			return nil, 0, wrapCall(err, "get %q v%d from server %d", name, version, s)
		}
		resp, err := respAs[GetResp](raw, fmt.Sprintf("get %q", name))
		if err != nil {
			return nil, 0, err
		}
		if resolved == NoVersion {
			resolved = resp.Version
		} else if resolved != resp.Version {
			return nil, 0, fmt.Errorf("staging: get %q: servers resolved versions %d and %d; use explicit versions", name, resolved, resp.Version)
		}
		for _, piece := range resp.Pieces {
			region, ok := piece.BBox.Intersect(bbox)
			if !ok {
				continue
			}
			domain.CopyRegion(dst, bbox, piece.Data, piece.BBox, region, c.pool.cfg.ElemSize)
			covered += region.Volume()
		}
	}
	if covered != bbox.Volume() {
		return nil, 0, fmt.Errorf("staging: get %q v%d %v: incomplete coverage %d/%d cells", name, version, bbox, covered, bbox.Volume())
	}
	return dst, resolved, nil
}

// Put stages data covering bbox as version of name using the original
// (non-logged) staging semantics: only the latest version is retained.
func (c *Client) Put(name string, version int64, bbox domain.BBox, data []byte) error {
	return c.put(name, version, bbox, data, false)
}

// Get reads version of name over bbox. Version NoVersion reads the
// latest, provided all touched servers agree on it.
func (c *Client) Get(name string, version int64, bbox domain.BBox) ([]byte, int64, error) {
	return c.get(name, version, bbox, false)
}

// PutWithLog stages data through the crash-consistent path: the servers
// log the write events so a recovering producer's re-issued writes are
// suppressed (dspaces_put_with_log in Table I).
func (c *Client) PutWithLog(name string, version int64, bbox domain.BBox, data []byte) error {
	return c.put(name, version, bbox, data, true)
}

// GetWithLog reads through the crash-consistent path: during replay the
// servers return the logged version of the data
// (dspaces_get_with_log in Table I).
func (c *Client) GetWithLog(name string, version int64, bbox domain.BBox) ([]byte, int64, error) {
	return c.get(name, version, bbox, true)
}

// WorkflowCheck notifies all staging servers that this rank has
// checkpointed (workflow_check in Table I). It returns the bytes freed
// by the end-of-cycle garbage collection.
//
// The freed-bytes count is at-least-once accounting: if a server's
// response is lost and the retry layer re-sends the request, the retried
// call reports only the (usually zero) bytes freed by the second GC
// pass, so the aggregate is a lower bound under transient faults. The
// checkpoint itself is safe to re-apply: re-marking the same log
// position is a no-op.
//
// The mark is best-effort per server: a failed server does not stop the
// remaining servers from being marked (narrowing the torn-checkpoint
// window a fail-stop mid-check opens), but the first error is still
// returned so the caller knows the checkpoint cut is incomplete.
func (c *Client) WorkflowCheck() (int64, error) {
	var freed int64
	var firstErr error
	for s := range c.conns {
		raw, err := c.call(s, CheckpointReq{App: c.app})
		if err != nil {
			if firstErr == nil {
				firstErr = wrapCall(err, "checkpoint on server %d", s)
			}
			continue
		}
		resp, err := respAs[CheckpointResp](raw, "checkpoint")
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		freed += resp.FreedBytes
	}
	return freed, firstErr
}

// WorkflowRestart rebuilds the staging client and switches this rank
// into replay mode on all servers (workflow_restart in Table I). It
// returns the total number of events that will be replayed.
//
// The replay-event count is at-least-once accounting: a retried
// RecoveryReq regenerates the replay script from the same checkpoint
// frontier (no replayed op can have happened in between, since this
// client issues them), so the switch into replay mode is idempotent,
// but a response lost after the server processed the request can make
// the reported count reflect the re-executed call.
func (c *Client) WorkflowRestart() (int, error) {
	return c.WorkflowRestartFrom(0)
}

// WorkflowRestartFrom is WorkflowRestart for a component whose restored
// durable checkpoint covers every event version <= covered (0 means no
// coverage information). Servers drop the covered prefix from the
// replay window before generating the script, so a workflow_check mark
// torn by a server fail-stop (some servers marked, some not, the
// component's own checkpoint durable) cannot make replay diverge.
func (c *Client) WorkflowRestartFrom(covered int64) (int, error) {
	if err := c.Reconnect(); err != nil {
		return 0, err
	}
	total := 0
	for s := range c.conns {
		raw, err := c.call(s, RecoveryReq{App: c.app, Covered: covered})
		if err != nil {
			return total, wrapCall(err, "recovery on server %d", s)
		}
		resp, err := respAs[RecoveryResp](raw, "recovery")
		if err != nil {
			return total, err
		}
		total += resp.ReplayEvents
	}
	return total, nil
}

// Versions returns the union of staged versions of name across servers.
func (c *Client) Versions(name string) ([]int64, error) {
	seen := map[int64]struct{}{}
	for s := range c.conns {
		raw, err := c.call(s, QueryReq{Name: name})
		if err != nil {
			return nil, wrapCall(err, "query on server %d", s)
		}
		resp, err := respAs[QueryResp](raw, "query")
		if err != nil {
			return nil, err
		}
		for _, v := range resp.Versions {
			seen[v] = struct{}{}
		}
	}
	out := make([]int64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sortInt64s(out)
	return out, nil
}

// Stats aggregates accounting across all servers.
func (c *Client) Stats() (StatsResp, error) {
	var agg StatsResp
	for s, conn := range c.conns {
		raw, err := conn.Call(StatsReq{})
		if err != nil {
			return agg, wrapCall(err, "stats on server %d", s)
		}
		st, err := respAs[StatsResp](raw, "stats")
		if err != nil {
			return agg, err
		}
		agg.StoreBytes += st.StoreBytes
		agg.LogMetaBytes += st.LogMetaBytes
		agg.ShardBytes += st.ShardBytes
		agg.Objects += st.Objects
		agg.Puts += st.Puts
		agg.Gets += st.Gets
		agg.SuppressedPuts += st.SuppressedPuts
		agg.ReplayGets += st.ReplayGets
		agg.GCFreedBytes += st.GCFreedBytes
		agg.PutNanos += st.PutNanos
		agg.RebuiltShards += st.RebuiltShards
		agg.RebuiltBytes += st.RebuiltBytes
		agg.ReplSeq += st.ReplSeq
		agg.ReplicaSlots += st.ReplicaSlots
		agg.ReplicaBytes += st.ReplicaBytes
		agg.ReplicaRecords += st.ReplicaRecords
		agg.FencedRejects += st.FencedRejects
		if st.Epoch > agg.Epoch {
			agg.Epoch = st.Epoch
		}
	}
	return agg, nil
}

// Trace fetches the recent protocol trace of every server, rendered
// and prefixed with the server id.
func (c *Client) Trace(limit int) ([]string, error) {
	var out []string
	for sid, conn := range c.conns {
		raw, err := conn.Call(TraceReq{Limit: limit})
		if err != nil {
			return nil, wrapCall(err, "trace on server %d", sid)
		}
		resp, err := respAs[TraceResp](raw, "trace")
		if err != nil {
			return nil, err
		}
		for _, rec := range resp.Records {
			out = append(out, fmt.Sprintf("s%d %s", sid, rec))
		}
	}
	return out, nil
}

// TraceRecords fetches the recent protocol trace of every server as
// typed records, for export into a durable trace file (dsctl trace
// dump). The outer slice is indexed by server id.
func (c *Client) TraceRecords(limit int) ([][]trace.Record, error) {
	out := make([][]trace.Record, len(c.conns))
	for sid, conn := range c.conns {
		raw, err := conn.Call(TraceReq{Limit: limit, Raw: true})
		if err != nil {
			return nil, wrapCall(err, "trace on server %d", sid)
		}
		resp, err := respAs[TraceResp](raw, "trace")
		if err != nil {
			return nil, err
		}
		out[sid] = resp.Raw
	}
	return out, nil
}

// lockServer is the group member hosting the lock table.
const lockServer = 0

func (c *Client) lockOp(name string, write, release bool) error {
	c.lockSeq++
	req := LockReq{Name: name, Holder: c.app, Write: write, Release: release, Seq: c.lockSeq}
	if _, err := c.call(lockServer, req); err != nil {
		op := "lock"
		if release {
			op = "unlock"
		}
		return wrapCall(err, "%s %q", op, name)
	}
	return nil
}

// LockOnWrite takes the exclusive write lock on name
// (dspaces_lock_on_write). Producers bracket each coupling cycle's puts
// with it so readers never observe a torn update.
func (c *Client) LockOnWrite(name string) error { return c.lockOp(name, true, false) }

// UnlockOnWrite releases the write lock on name.
func (c *Client) UnlockOnWrite(name string) error { return c.lockOp(name, true, true) }

// LockOnRead takes a shared read lock on name (dspaces_lock_on_read).
func (c *Client) LockOnRead(name string) error { return c.lockOp(name, false, false) }

// UnlockOnRead releases the read lock on name.
func (c *Client) UnlockOnRead(name string) error { return c.lockOp(name, false, true) }

// ShardConn exposes the raw per-server connection for the resilience
// layer (internal/corec), which places shards explicitly.
func (c *Client) ShardConn(server int) transport.Client { return c.conns[server] }

// NumServers returns the group size.
func (c *Client) NumServers() int { return len(c.conns) }

func sortInt64s(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
