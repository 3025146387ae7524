// Package recovery implements the staging-server fail-stop recovery
// supervisor: it subscribes to liveness verdicts from a health.Detector
// and, on a confirmed death, promotes a warm spare into the dead slot,
// bumps the membership epoch, pushes the new view to every member, and
// re-protects the CoREC-redundant objects whose shards died with the
// server.
//
// Recovery itself is crash-consistent: any number of redundant
// supervisors may run against one group, and lease-based leader
// election (a token CAS on a majority of the membership) picks exactly
// one to act. Every recovery-side mutation — the membership write, the
// view push, the log-restore install, the re-protection shard writes —
// carries the leader's fencing token, so a deposed leader's stale
// calls are rejected server-side. Each promotion is journaled as an
// intent record on a majority of members before anything is mutated,
// so a standby that takes over mid-promotion resumes the same slot
// with the same spare: no half-promoted group, no double-spent spare.
// The supervisor never touches object or log state directly —
// re-protection goes through the same client-driven shard RPCs the
// CoREC layer always uses, so it composes with any transport.
package recovery

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"gospaces/internal/corec"
	"gospaces/internal/health"
	"gospaces/internal/metrics"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

// Config tunes the supervisor.
type Config struct {
	// Redundancy is the CoREC geometry of the shards to re-protect after
	// a promotion. Nil disables re-protection: the supervisor only
	// promotes and re-registers membership.
	Redundancy *corec.Config
	// RebuildParallel bounds concurrent key rebuilds (default 4).
	RebuildParallel int
	// ID names this supervisor in lease records and its detector's
	// probes (default "supervisor/0"). Redundant supervisors over one
	// group must use distinct IDs.
	ID string
	// Detector tunes the supervisor's liveness detector (health
	// defaults when zero).
	Detector health.Config
	// LeaseTTL is the leader-lease duration: a standby takes over within
	// one TTL of the leader stalling or dying. Default 3x the detector's
	// detection window.
	LeaseTTL time.Duration
	// PromotionHook, if set, runs after each completed promotion stage
	// ("intent", "restored", "replaced", "pushed") — the nemesis
	// harness's deterministic kill point for killing a leader
	// mid-promotion.
	PromotionHook func(stage string, slot int)
}

// deadSlot is one confirmed-dead membership slot awaiting promotion.
type deadSlot struct {
	addr     string // the address that died (for the intent journal)
	notified bool   // pool marked the slot down: no spare was left
}

// Supervisor drives fail-stop recovery for one staging group. Several
// redundant supervisors may supervise the same group; leader election
// picks one to act and the rest stand by.
type Supervisor struct {
	tr    transport.Transport
	det   *health.Detector
	mem   *health.Membership
	group *staging.Group
	cfg   Config
	reg   *metrics.Registry

	events <-chan health.Event
	memCh  <-chan health.Change

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	mu      sync.Mutex
	started bool
	leader  bool
	token   uint64 // lease token while leader
	maxSeen uint64 // highest token observed cluster-wide
	dead    map[int]*deadSlot
	wake    chan struct{} // closed+replaced on every state change (WaitIdle)
}

// New wires a supervisor over a running staging group. It builds a
// liveness detector from cfg.Detector under cfg.ID, arms it to watch
// every current member, and subscribes to membership changes so a
// standby's detector follows promotions made by the leader. Spares are
// drawn from the group, and the group's client pool follows recovery:
// a promotion re-points the slot (Pool.SetMember), and a slot stranded
// without a spare is marked down (Pool.MarkSlotDown) until it heals,
// so callers see ErrSlotDown instead of timing out against the dead
// address. Call Start to begin supervising.
func New(tr transport.Transport, group *staging.Group, cfg Config) *Supervisor {
	if cfg.ID == "" {
		cfg.ID = "supervisor/0"
	}
	det := health.NewDetector(tr, cfg.ID, cfg.Detector)
	if cfg.RebuildParallel <= 0 {
		cfg.RebuildParallel = 4
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * det.Window()
	}
	mem := group.Membership()
	s := &Supervisor{
		tr:    tr,
		det:   det,
		mem:   mem,
		group: group,
		cfg:   cfg,
		reg:   metrics.NewRegistry(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		dead:  make(map[int]*deadSlot),
		wake:  make(chan struct{}),
	}
	for id, addr := range mem.Addrs() {
		det.Watch(id, addr)
	}
	s.events = det.Subscribe()
	s.memCh = mem.Subscribe()
	return s
}

// Metrics returns the registry recording recovery.promotions,
// recovery.rebuilds, recovery.rebuild_bytes, recovery.failed_rebuilds,
// recovery.duration_ns, and recovery.no_spare; with log replication
// enabled it also records recovery.log_restores, recovery.log_records,
// recovery.log_bytes, recovery.log_lag (stream-position spread among
// surviving replicas), recovery.log_missing, and
// recovery.failed_log_restores. The HA machinery adds
// recovery.elections, recovery.lease_renewals, recovery.takeovers
// (elections that found journaled intents), recovery.intent_resumes,
// recovery.spare_returns (failed promotions refunding the pool),
// recovery.dead_retries (backlogged slots healed by a late AddSpare),
// recovery.view_repushes (rejoined members re-sent the current view),
// and recovery.fenced_rejects (this supervisor's calls rejected as
// deposed).
func (s *Supervisor) Metrics() *metrics.Registry { return s.reg }

// ID returns the supervisor's lease identity.
func (s *Supervisor) ID() string { return s.cfg.ID }

// IsLeader reports whether this supervisor currently holds the
// recovery lease (false once stopped).
func (s *Supervisor) IsLeader() bool {
	if s.stopped() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leader
}

// Token returns the fencing token of the current (or last-held) lease.
func (s *Supervisor) Token() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.token
}

// DeadSlots returns the dead-unrecovered backlog: slots confirmed dead
// that no spare has been promoted into yet.
func (s *Supervisor) DeadSlots() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.dead))
	for slot := range s.dead {
		out = append(out, slot)
	}
	sort.Ints(out)
	return out
}

// Start launches the detector, runs a first election round, and starts
// the supervision loop. It is a no-op when already started.
func (s *Supervisor) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	s.det.Start()
	// First election immediately: a lone supervisor becomes leader with
	// no added latency; contending candidates fall back to jittered
	// retries in the loop.
	s.campaign()
	go s.loop()
}

// Close stops supervising gracefully (the detector is closed too). The
// lease is not released — it expires on its own, which is also exactly
// what a crash looks like to the standbys.
func (s *Supervisor) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.det.Close() // closes the event channel, unblocking the loop
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		<-s.done
	}
	return nil
}

// Kill stops the supervisor abruptly — the nemesis harness's
// supervisor crash. Unlike Close it does not wait for the loop to
// drain: an in-flight promotion aborts at its next stage boundary,
// leaving the journaled intent for the next leader to resume. Call
// Close afterwards to reap the loop goroutine.
func (s *Supervisor) Kill() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.det.Close()
	s.wakeWaiters()
}

func (s *Supervisor) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// wakeChan returns the channel WaitIdle parks on; wakeWaiters closes
// and replaces it on every supervisor state change.
func (s *Supervisor) wakeChan() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wake
}

func (s *Supervisor) wakeWaiters() {
	s.mu.Lock()
	close(s.wake)
	s.wake = make(chan struct{})
	s.mu.Unlock()
}

// WaitIdle blocks until every membership slot has been Alive — with no
// recovery in flight — for a full detection window, or the timeout
// expires. Requiring a quiet window rather than an instantaneous check
// closes the race where a server just died but the detector has not
// yet missed a probe. A workflow calls WaitIdle before re-binding
// clients so promoted addresses are in place. The wait is event-driven:
// it parks on supervisor wakeups (detector transitions, promotion
// start/finish, membership changes) instead of busy-polling, so idle
// groups cost nothing on the fault-free path.
func (s *Supervisor) WaitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	quiet := s.det.Window()
	var quietSince time.Time
	timer := time.NewTimer(quiet)
	defer timer.Stop()
	for {
		wake := s.wakeChan()
		idle := s.reg.Counter("recovery.in_flight").Value() == 0 && s.allAlive()
		now := time.Now()
		if idle {
			if quietSince.IsZero() {
				quietSince = now
			}
			if now.Sub(quietSince) >= quiet {
				return nil
			}
		} else {
			quietSince = time.Time{}
		}
		if now.After(deadline) {
			return fmt.Errorf("recovery: not idle after %v (states %v)", timeout, s.det.States())
		}
		// Sleep until the next decision point: the quiet window filling,
		// the deadline, or a state-change wakeup — whichever is first.
		next := deadline.Sub(now)
		if idle {
			if q := quiet - now.Sub(quietSince); q < next {
				next = q
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(next)
		select {
		case <-wake:
		case <-timer.C:
		}
	}
}

func (s *Supervisor) allAlive() bool {
	for _, st := range s.det.States() {
		if st != health.Alive {
			return false
		}
	}
	return true
}

// renewEvery is the lease maintenance period: a third of the TTL so a
// leader renews well before expiry, plus a per-supervisor deterministic
// jitter so contending candidates do not campaign in lock-step.
func (s *Supervisor) renewEvery() time.Duration {
	ttl := s.cfg.LeaseTTL
	every := ttl / 3
	if span := ttl / 6; span > 0 {
		h := fnv.New32a()
		h.Write([]byte(s.cfg.ID))
		every += time.Duration(h.Sum32()) % span
	}
	return every
}

func (s *Supervisor) loop() {
	defer close(s.done)
	tick := time.NewTicker(s.renewEvery())
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case ev, ok := <-s.events:
			if !ok {
				return
			}
			s.handleEvent(ev)
		case ch := <-s.memCh:
			s.handleChange(ch)
		case <-tick.C:
			s.tick()
		}
	}
}

// tick maintains the lease — renew as leader, campaign as standby —
// and sweeps the dead-slot backlog (which is how a slot stranded by
// spare exhaustion heals once AddSpare refills the pool).
func (s *Supervisor) tick() {
	if s.stopped() {
		return
	}
	if s.isLeader() {
		if s.renew() {
			s.reg.Counter("recovery.lease_renewals").Inc()
		} else {
			s.stepDown()
		}
	} else {
		s.campaign()
	}
	s.sweep()
}

// handleEvent folds one liveness transition into the backlog and, as
// leader, acts on it.
func (s *Supervisor) handleEvent(ev health.Event) {
	switch ev.State {
	case health.Dead:
		s.mu.Lock()
		if _, ok := s.dead[ev.Server]; !ok {
			s.dead[ev.Server] = &deadSlot{addr: ev.Addr}
		}
		s.mu.Unlock()
		s.sweep()
	case health.Alive:
		// Unconditional on heal: the supervisor that marked the slot
		// down may have died, so any supervisor observing the heal
		// clears the mark (clearing an unmarked slot is a no-op).
		s.dropDead(ev.Server)
		s.mu.Lock()
		leader, token := s.leader, s.token
		s.mu.Unlock()
		// A member that was dark during a view push converges on rejoin:
		// the leader re-sends the current view to it (a spare that died
		// out of the membership is not re-pushed).
		if leader {
			addrs, epoch := s.mem.Snapshot()
			if ev.Server >= 0 && ev.Server < len(addrs) && addrs[ev.Server] == ev.Addr {
				if s.pushViewTo(ev.Addr, token, epoch, addrs) {
					s.reg.Counter("recovery.view_repushes").Inc()
				}
			}
		}
	}
	s.wakeWaiters()
}

// handleChange follows a membership write made by whichever supervisor
// is leader: the detector re-targets the slot, and the slot leaves this
// supervisor's backlog.
func (s *Supervisor) handleChange(ch health.Change) {
	s.det.SetAddr(ch.Server, ch.Addr)
	s.dropDead(ch.Server)
}

func (s *Supervisor) isLeader() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leader
}

func (s *Supervisor) currentToken() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.token
}

// stepDown drops leadership locally; the lease expires (or has been
// superseded) on the servers.
func (s *Supervisor) stepDown() {
	s.mu.Lock()
	s.leader = false
	s.mu.Unlock()
	s.wakeWaiters()
}

// observeDeposed records a server-side fencing rejection: a newer
// leader exists, so this one stops acting immediately.
func (s *Supervisor) observeDeposed() {
	s.reg.Counter("recovery.fenced_rejects").Inc()
	s.stepDown()
}

// quorum is the grant count an election or renewal must exceed half
// of: the membership minus the slots this supervisor has confirmed
// dead (a dead member can never grant, and waiting for it would wedge
// small groups — a 2-server group with one death could otherwise never
// elect anyone to repair it). Competing leaders elected over
// different subjective live-sets are still serialized by the fencing
// tokens: the per-server CAS feeds every candidate the cluster-wide
// token high-water mark, so the later leader's token is strictly
// higher and fences the earlier one out of every mutation.
func (s *Supervisor) quorum(addrs []string) int {
	s.mu.Lock()
	n := len(addrs)
	for slot := range s.dead {
		if slot >= 0 && slot < len(addrs) {
			n--
		}
	}
	s.mu.Unlock()
	if n < 1 {
		n = 1
	}
	return n
}

// leaseRound proposes (or renews) the lease on every member and counts
// grants, folding refused servers' token high-water marks into maxSeen
// so the next campaign proposes past them.
func (s *Supervisor) leaseRound(addrs []string, token uint64) int {
	grants := 0
	for _, addr := range addrs {
		conn, err := s.tr.Dial(addr)
		if err != nil {
			continue
		}
		raw, err := conn.Call(staging.LeaseCASReq{Holder: s.cfg.ID, Token: token, TTL: s.cfg.LeaseTTL})
		conn.Close()
		if err != nil {
			continue
		}
		resp, ok := raw.(staging.LeaseCASResp)
		if !ok {
			continue
		}
		s.mu.Lock()
		if resp.MaxToken > s.maxSeen {
			s.maxSeen = resp.MaxToken
		}
		s.mu.Unlock()
		if resp.Granted {
			grants++
		}
	}
	return grants
}

// campaign runs one election round: propose maxSeen+1 to every member,
// become leader on a majority of grants. On success the membership is
// fenced at the new token and any journaled promotion intents from the
// deposed leader are resumed.
func (s *Supervisor) campaign() bool {
	if s.stopped() {
		return false
	}
	addrs := s.mem.Addrs()
	s.mu.Lock()
	token := s.maxSeen + 1
	s.mu.Unlock()
	grants := s.leaseRound(addrs, token)
	if grants*2 <= s.quorum(addrs) {
		// Give back any partial grants: two candidates each holding half
		// the membership would otherwise re-extend their halves on every
		// retry and livelock the election.
		if grants > 0 {
			s.releaseRound(addrs)
		}
		return false
	}
	s.mu.Lock()
	s.leader = true
	s.token = token
	if token > s.maxSeen {
		s.maxSeen = token
	}
	s.mu.Unlock()
	s.reg.Counter("recovery.elections").Inc()
	// Seal the in-process membership too, so a deposed leader sharing
	// this Membership object cannot race a stale Replace past us.
	s.mem.Fence(token)
	s.wakeWaiters()
	s.onElected(token)
	return true
}

// renew extends the lease under the current token; losing the majority
// means a partition or a superseding leader, either way leadership is
// gone — the stragglers that did renew are released so a successor
// need not wait out their TTL.
func (s *Supervisor) renew() bool {
	addrs := s.mem.Addrs()
	if s.leaseRound(addrs, s.currentToken())*2 > s.quorum(addrs) {
		return true
	}
	s.releaseRound(addrs)
	return false
}

// releaseRound gives this supervisor's lease grants back on every
// member; a record held by someone else is untouched.
func (s *Supervisor) releaseRound(addrs []string) {
	for _, addr := range addrs {
		conn, err := s.tr.Dial(addr)
		if err != nil {
			continue
		}
		conn.Call(staging.LeaseCASReq{Holder: s.cfg.ID, Release: true})
		conn.Close()
	}
}

// onElected resumes whatever the previous leader left half-done: the
// journaled promotion intents found on a majority of members.
func (s *Supervisor) onElected(token uint64) {
	intents := s.fetchIntents()
	if len(intents) > 0 {
		s.reg.Counter("recovery.takeovers").Inc()
	}
	for _, in := range intents {
		if s.stopped() || !s.isLeader() {
			return
		}
		s.resume(in)
	}
}

// fetchIntents unions the journaled promotion intents across members,
// keeping the highest-token record per slot.
func (s *Supervisor) fetchIntents() []staging.PromotionIntent {
	best := make(map[int]staging.PromotionIntent)
	for _, addr := range s.mem.Addrs() {
		conn, err := s.tr.Dial(addr)
		if err != nil {
			continue
		}
		raw, err := conn.Call(staging.LeaderInfoReq{})
		conn.Close()
		if err != nil {
			continue
		}
		resp, ok := raw.(staging.LeaderInfoResp)
		if !ok {
			continue
		}
		for _, in := range resp.Intents {
			if cur, ok := best[in.Slot]; !ok || in.Token > cur.Token {
				best[in.Slot] = in
			}
		}
	}
	slots := make([]int, 0, len(best))
	for slot := range best {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	out := make([]staging.PromotionIntent, 0, len(best))
	for _, slot := range slots {
		out = append(out, best[slot])
	}
	return out
}

// resume continues a promotion journaled by a deposed leader. The
// shared spare assignment is authoritative: TakeSpareFor returns the
// spare the deposed leader already drew for the slot, so the resumed
// promotion can never spend a second one.
func (s *Supervisor) resume(in staging.PromotionIntent) {
	token := s.currentToken()
	already := s.mem.Addr(in.Slot) == in.Spare
	var spare string
	if already {
		// The membership write landed before the takeover; only the
		// finish work (view push, intent clear, commit) is outstanding.
		spare = in.Spare
	} else {
		var ok bool
		spare, ok = s.group.TakeSpareFor(in.Slot)
		if !ok {
			// The intent is stale: the deposed leader's spare was returned
			// to the pool (failed restore) and the pool is now dry. Clear
			// the journal; the dead-slot sweep re-promotes on refill.
			s.clearIntent(in.Slot, token)
			return
		}
	}
	s.mu.Lock()
	if _, ok := s.dead[in.Slot]; !ok && !already {
		s.dead[in.Slot] = &deadSlot{addr: in.DeadAddr}
	}
	s.mu.Unlock()
	s.reg.Counter("recovery.intent_resumes").Inc()
	s.reg.Counter("recovery.in_flight").Inc()
	s.wakeWaiters()
	s.promote(in.Slot, in.DeadAddr, spare)
	s.reg.Counter("recovery.in_flight").Add(-1)
	s.wakeWaiters()
}

// sweep drives the dead-slot backlog as leader: every backlogged slot
// gets a promotion attempt. Slots that found no spare stay backlogged
// and are retried on every lease tick — a later AddSpare heals them
// (recovery.dead_retries counts those late heals).
func (s *Supervisor) sweep() {
	if s.stopped() || !s.isLeader() {
		return
	}
	s.mu.Lock()
	slots := make([]int, 0, len(s.dead))
	for slot := range s.dead {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	s.mu.Unlock()
	for _, slot := range slots {
		if s.stopped() || !s.isLeader() {
			return
		}
		s.recoverSlot(slot)
	}
}

// recoverSlot runs the promote-and-re-protect sequence for one
// backlogged slot: spare draw → intent journal → log restore → fenced
// membership write → fenced view push → re-target detector → client
// pool update → fenced shard re-protection.
func (s *Supervisor) recoverSlot(slot int) {
	s.mu.Lock()
	d, ok := s.dead[slot]
	if !ok {
		s.mu.Unlock()
		return
	}
	deadAddr := d.addr
	wasStranded := d.notified
	s.mu.Unlock()

	start := time.Now()
	s.reg.Counter("recovery.in_flight").Inc()
	s.wakeWaiters()
	defer func() {
		s.reg.Counter("recovery.in_flight").Add(-1)
		s.wakeWaiters()
	}()

	spare, ok := s.group.TakeSpareFor(slot)
	if !ok {
		// Spare exhaustion: the slot enters the stranded backlog. It is
		// re-attempted every lease tick, so a later AddSpare heals it;
		// meanwhile the pool's down mark lets clients fail fast with
		// ErrSlotDown.
		s.reg.Counter("recovery.no_spare").Inc()
		s.markStranded(slot)
		return
	}
	if wasStranded {
		s.reg.Counter("recovery.dead_retries").Inc()
	}
	s.promote(slot, deadAddr, spare)
	s.reg.Counter("recovery.duration_ns").Add(time.Since(start).Nanoseconds())
}

// markStranded marks the slot down in the pool exactly once per death.
func (s *Supervisor) markStranded(slot int) {
	s.mu.Lock()
	d, ok := s.dead[slot]
	notify := ok && !d.notified
	if notify {
		d.notified = true
	}
	s.mu.Unlock()
	if notify {
		s.group.Pool.MarkSlotDown(slot, true)
	}
}

// hook runs the promotion-stage hook and reports whether the promotion
// should proceed — false once the supervisor is stopped (killed
// mid-promotion) or deposed.
func (s *Supervisor) hook(stage string, slot int) bool {
	if h := s.cfg.PromotionHook; h != nil {
		h(stage, slot)
	}
	return !s.stopped() && s.isLeader()
}

// promote executes (or resumes) the promotion of spare into slot. Every
// stage is idempotent under the intent journal: a takeover re-runs the
// sequence with the same spare, skipping the log restore once the
// membership already points at it (the restore strictly precedes the
// membership write, so a promoted address implies a completed restore —
// re-installing onto a live member would wipe post-promotion writes).
func (s *Supervisor) promote(slot int, deadAddr, spare string) {
	token := s.currentToken()
	intent := staging.PromotionIntent{Slot: slot, DeadAddr: deadAddr, Spare: spare, Token: token}
	if !s.putIntent(intent, token) {
		s.reg.Counter("recovery.failed_promotions").Inc()
		return
	}
	if !s.hook("intent", slot) {
		return
	}
	already := s.mem.Addr(slot) == spare
	if !already && !s.restoreLog(slot, spare, token) {
		// The restore failed outright (the spare is unreachable): refund
		// the pool so another slot — or a retry — can spend the spare.
		s.giveBack(slot, token)
		s.reg.Counter("recovery.failed_promotions").Inc()
		return
	}
	if !s.hook("restored", slot) {
		return
	}
	epoch, err := s.mem.ReplaceFenced(token, slot, spare)
	if err != nil {
		if errors.Is(err, health.ErrFenced) {
			s.observeDeposed()
			return
		}
		s.giveBack(slot, token)
		s.reg.Counter("recovery.failed_promotions").Inc()
		return
	}
	if !already {
		// Count the supervisor that performed the membership write; a
		// takeover finishing an already-replaced promotion must not
		// count it twice across the redundant set.
		s.reg.Counter("recovery.promotions").Inc()
	}
	if !s.hook("replaced", slot) {
		return
	}
	addrs := s.mem.Addrs()
	s.pushView(token, epoch, addrs)
	if !s.hook("pushed", slot) {
		return
	}
	s.clearIntent(slot, token)
	s.group.CommitSpare(slot)
	s.det.SetAddr(slot, spare)
	s.dropDead(slot)
	s.group.Pool.SetMember(slot, spare, epoch)
	if s.cfg.Redundancy != nil {
		s.reprotect(addrs)
	}
}

// dropDead removes a healed slot from the backlog and clears its
// slot-down mark in the pool (a no-op for a slot never stranded).
func (s *Supervisor) dropDead(slot int) {
	s.mu.Lock()
	delete(s.dead, slot)
	s.mu.Unlock()
	s.group.Pool.MarkSlotDown(slot, false)
	s.wakeWaiters()
}

// giveBack refunds a spare the promotion could not spend, clearing the
// journaled intent first so a takeover cannot resume onto a spare that
// is back in the pool. A deposed leader must not refund — the new
// leader owns the assignment now.
func (s *Supervisor) giveBack(slot int, token uint64) {
	if !s.isLeader() {
		return
	}
	s.clearIntent(slot, token)
	if s.group.ReturnSpare(slot) {
		s.reg.Counter("recovery.spare_returns").Inc()
	}
}

// putIntent journals the promotion intent on a majority of the
// surviving membership (the dead slot cannot ack). A fencing rejection
// means a newer leader exists and the promotion is abandoned here.
func (s *Supervisor) putIntent(in staging.PromotionIntent, token uint64) bool {
	addrs := s.mem.Addrs()
	acks, polled := 0, 0
	for i, addr := range addrs {
		if i == in.Slot {
			continue
		}
		polled++
		raw, err := s.fencedCall(addr, token, staging.IntentPutReq{Intent: in})
		if err != nil {
			if staging.IsFenced(err) {
				s.observeDeposed()
				return false
			}
			continue
		}
		if _, ok := raw.(staging.IntentPutResp); ok {
			acks++
		}
	}
	return acks*2 > polled
}

// clearIntent drops the journaled intent on every reachable member.
func (s *Supervisor) clearIntent(slot int, token uint64) {
	for _, addr := range s.mem.Addrs() {
		if _, err := s.fencedCall(addr, token, staging.IntentClearReq{Slot: slot}); err != nil && staging.IsFenced(err) {
			s.observeDeposed()
			return
		}
	}
}

// fencedCall dials addr and issues one request under the fencing
// token.
func (s *Supervisor) fencedCall(addr string, token uint64, req any) (any, error) {
	conn, err := s.tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return conn.Call(staging.FencedReq{Token: token, Req: req})
}

// restoreLog restores the dead slot's replicated event-log state onto
// the spare: every surviving member is asked for the replica it hosts
// of that slot, the freshest answer — the highest stream position —
// wins (ties go to the lowest-numbered responder), and it is installed
// on the spare with a fenced WlogInstallReq before the membership
// moves. Flush-before-ack on the origin guarantees the freshest
// surviving replica holds every acknowledged operation. Finding no
// replica is not fatal — the slot comes up empty, the pre-replication
// behavior — but it is counted, because with replication enabled it
// means the queues died with the server. It reports whether the
// promotion may proceed.
func (s *Supervisor) restoreLog(deadSlot int, spareAddr string, token uint64) bool {
	addrs := s.mem.Addrs()
	var best *staging.ReplState
	minSeq, maxSeq := int64(-1), int64(-1)
	for i, addr := range addrs {
		if i == deadSlot {
			continue
		}
		conn, err := s.tr.Dial(addr)
		if err != nil {
			continue
		}
		raw, err := conn.Call(staging.ReplFetchReq{Slot: deadSlot})
		conn.Close()
		if err != nil {
			continue
		}
		resp, ok := raw.(staging.ReplFetchResp)
		if !ok || !resp.Found {
			continue
		}
		if minSeq < 0 || resp.State.Seq < minSeq {
			minSeq = resp.State.Seq
		}
		if resp.State.Seq > maxSeq {
			maxSeq = resp.State.Seq
			st := resp.State
			best = &st
		}
	}
	if best == nil {
		s.reg.Counter("recovery.log_missing").Inc()
		return true
	}
	raw, err := s.fencedCall(spareAddr, token, staging.WlogInstallReq{Slot: deadSlot, State: *best})
	if err != nil {
		if staging.IsFenced(err) {
			s.observeDeposed()
			return false
		}
		s.reg.Counter("recovery.failed_log_restores").Inc()
		return false
	}
	if _, ok := raw.(staging.WlogInstallResp); !ok {
		s.reg.Counter("recovery.failed_log_restores").Inc()
		return false
	}
	restored := int64(len(best.Wlog))
	for _, o := range best.Objects {
		restored += int64(len(o.Data))
	}
	s.reg.Counter("recovery.log_restores").Inc()
	s.reg.Counter("recovery.log_records").Add(best.Seq)
	s.reg.Counter("recovery.log_bytes").Add(restored)
	s.reg.Counter("recovery.log_lag").Add(maxSeq - minSeq)
	s.scrubTier(spareAddr, token)
	return true
}

// scrubTier fires a best-effort CRC scrub over the promoted spare's
// cold tier right after the log restore: a promotion is exactly when
// spilled records written before the fault must be proven readable, and
// the scrub re-replicates any generation the storage layer corrupted
// while the slot was dark. Failures are counted, never fatal — the
// promotion already holds the restored state in RAM.
func (s *Supervisor) scrubTier(spareAddr string, token uint64) {
	raw, err := s.fencedCall(spareAddr, token, staging.TierScrubReq{})
	if err != nil {
		s.reg.Counter("recovery.tier_scrub_errors").Inc()
		return
	}
	resp, ok := raw.(staging.TierScrubResp)
	if !ok || !resp.Enabled {
		return
	}
	s.reg.Counter("recovery.tier_scrubs").Inc()
	s.reg.Counter("recovery.tier_scrub_healed").Add(resp.Healed)
	s.reg.Counter("recovery.tier_scrub_lost").Add(resp.Lost)
}

// pushView installs the new membership on every member, including the
// promoted spare (which clears its spare flag). Unreachable members are
// skipped; they adopt the view on rejoin — the leader re-pushes it when
// the detector reports them Alive again — or via their own
// MembershipReq exchange.
func (s *Supervisor) pushView(token uint64, epoch uint64, addrs []string) {
	for _, addr := range addrs {
		if !s.isLeader() {
			return
		}
		s.pushViewTo(addr, token, epoch, addrs)
	}
}

// pushViewTo sends one fenced view install, reporting success.
func (s *Supervisor) pushViewTo(addr string, token uint64, epoch uint64, addrs []string) bool {
	raw, err := s.fencedCall(addr, token, staging.EpochSetReq{Epoch: epoch, Addrs: addrs})
	if err != nil {
		if staging.IsFenced(err) {
			s.observeDeposed()
		}
		return false
	}
	_, ok := raw.(staging.EpochSetResp)
	return ok
}

// reprotectAttempts bounds the re-protection retry loop: a rebuild can
// fail while another member is transiently dark (crashed, partitioned),
// so the supervisor waits out a detection window and tries again rather
// than leaving redundancy degraded.
const reprotectAttempts = 5

// reprotect restores full redundancy, retrying with a detection-window
// backoff until a pass completes with every key rebuilt (or the
// attempt budget runs out). Each pass is timed under
// recovery.reprotect: rebuild decode dominates it, and the EC kernel's
// chunked-parallel path (ec.SetWorkers) shortens exactly this window.
func (s *Supervisor) reprotect(addrs []string) {
	start := time.Now()
	defer func() { s.reg.Timer("recovery.reprotect").Observe(time.Since(start)) }()
	for attempt := 0; attempt < reprotectAttempts; attempt++ {
		if s.reprotectOnce(addrs) {
			return
		}
		select {
		case <-s.stop:
			return
		case <-time.After(s.det.Window()):
		}
		// Another promotion may have moved the membership meanwhile.
		addrs = s.mem.Addrs()
	}
}

// reprotectOnce runs one re-protection pass: union the shard keys held
// by reachable members, rebuild each with bounded parallelism. Rebuild
// reads any K surviving shards and re-writes only the missing ones, so
// keys untouched by the failure cost one round of reads. The shard
// writes go through fenced connections, so a deposed leader's rebuild
// cannot dirty the group. It reports whether the pass fully restored
// redundancy.
func (s *Supervisor) reprotectOnce(addrs []string) bool {
	token := s.currentToken()
	clean := true
	conns := make([]transport.Client, len(addrs))
	for i, addr := range addrs {
		conn, err := s.tr.Dial(addr)
		if err != nil {
			// A member is dark; its shards read as lost and its writes
			// fail. Proceed degraded and retry for the remainder.
			conns[i] = deadClient{}
			clean = false
			continue
		}
		conns[i] = fencedConn{inner: conn, token: token}
	}
	defer closeAll(conns)

	seen := map[string]struct{}{}
	var keys []string
	for _, conn := range conns {
		raw, err := conn.Call(staging.ShardKeysReq{})
		if err != nil {
			if staging.IsFenced(err) {
				s.observeDeposed()
				return true // the new leader re-protects
			}
			continue // dead or lagging member; survivors cover its keys
		}
		resp, ok := raw.(staging.ShardKeysResp)
		if !ok {
			continue
		}
		for _, k := range resp.Keys {
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				keys = append(keys, k)
			}
		}
	}
	if len(keys) == 0 {
		return clean
	}
	rc, err := corec.New(*s.cfg.Redundancy, conns)
	if err != nil {
		s.reg.Counter("recovery.failed_rebuilds").Add(int64(len(keys)))
		return false
	}
	sem := make(chan struct{}, s.cfg.RebuildParallel)
	type result struct {
		bytes int64
		ok    bool
	}
	results := make(chan result, len(keys))
	for _, key := range keys {
		go func(key string) {
			sem <- struct{}{}
			defer func() { <-sem }()
			n, err := rc.Rebuild(key)
			if err != nil {
				s.reg.Counter("recovery.failed_rebuilds").Inc()
			}
			results <- result{bytes: n, ok: err == nil}
		}(key)
	}
	for range keys {
		r := <-results
		if r.bytes > 0 {
			s.reg.Counter("recovery.rebuilds").Inc()
			s.reg.Counter("recovery.rebuild_bytes").Add(r.bytes)
		}
		if !r.ok {
			clean = false
		}
	}
	return clean
}

// fencedConn wraps a transport client so every call carries the
// leader's fencing token.
type fencedConn struct {
	inner transport.Client
	token uint64
}

func (f fencedConn) Call(req any) (any, error) {
	return f.inner.Call(staging.FencedReq{Token: f.token, Req: req})
}
func (f fencedConn) Close() error { return f.inner.Close() }

// deadClient stands in for a member that cannot be dialled during a
// re-protection pass; every call fails like the dead server would.
type deadClient struct{}

func (deadClient) Call(any) (any, error) {
	return nil, fmt.Errorf("%w: member dark during re-protection", transport.ErrNoEndpoint)
}
func (deadClient) Close() error { return nil }

func closeAll(conns []transport.Client) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}
