package workflow

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"gospaces/internal/domain"
	"gospaces/internal/failure"
	"gospaces/internal/pfs"
	"gospaces/internal/qos"
	"gospaces/internal/staging"
	"gospaces/internal/tier"
	"gospaces/internal/transport"
)

// soakGlobal is the domain every fault-harness group spans: 64x64x1
// bytes, so one version is 4 KiB and a few versions fit a tier-test
// budget.
func soakGlobal() domain.BBox { return domain.Box3(0, 0, 0, 63, 63, 0) }

// faultGroup is the staging rig the nemesis soak and the churn-soak
// executor both run on, and the arming point for their transport and
// storage faults.
type faultGroup struct {
	tr     *transport.Chaos
	group  *staging.Group
	global domain.BBox

	tierMu sync.Mutex
	tiers  map[int]*pfs.Store // tier backend by server id (spares included)
}

// newFaultGroup starts a soakGlobal group with 2-way wlog replication
// and spares over a seeded chaos transport. flood enables admission
// control: the "flood" tenant gets a small staging quota at the lowest
// priority, every other tenant the default at priority 1. A positive
// tierBudget caps each server's resident bytes and gives every server
// and spare its own cold tier, so older logged history spills.
func newFaultGroup(name string, seed int64, servers, spares int, flood bool, tierBudget int64) (*faultGroup, error) {
	f := &faultGroup{tr: transport.NewChaos(transport.NewInProc(), seed), global: soakGlobal(), tiers: map[int]*pfs.Store{}}
	cfg := staging.Config{
		Global:       f.global,
		NServers:     servers,
		Bits:         2,
		ElemSize:     1,
		WlogReplicas: 2,
	}
	if flood {
		cfg.QoS = &qos.Config{
			Tenants: map[string]qos.Quota{"flood": {StagingBytes: 4096, Priority: 0}},
			Default: qos.Quota{Priority: 1},
		}
	}
	if tierBudget > 0 {
		cfg.MemoryBudgetPerServer = tierBudget
		cfg.TierBackend = func(id int) tier.Backend {
			be := pfs.NewStore()
			f.tierMu.Lock()
			f.tiers[id] = be
			f.tierMu.Unlock()
			return be
		}
	}
	group, err := staging.StartGroup(f.tr, name, cfg)
	if err != nil {
		return nil, err
	}
	f.group = group
	for i := 0; i < spares; i++ {
		if _, err := group.AddSpare(); err != nil {
			group.Close()
			return nil, err
		}
	}
	return f, nil
}

// blackout makes original server slot unreachable for d; the address
// recovers afterwards.
func (f *faultGroup) blackout(slot int, d time.Duration) error {
	addrs := f.group.Addrs()
	if slot < 0 || slot >= len(addrs) {
		return fmt.Errorf("blackout slot %d of %d", slot, len(addrs))
	}
	f.tr.Blackout(addrs[slot], d)
	return nil
}

// tierFault arms one storage fault on server's cold tier and reports
// whether it had anything to bite. Torn/partial writes and ENOSPC fail
// the next tier write (the spill rolls back, the version stays
// resident); bit rot corrupts a committed generation-0 record at rest,
// whose intact twin a read or scrub must heal from; slow I/O drags
// every tier access for slowFor.
func (f *faultGroup) tierFault(server int, kind failure.Kind, offset int, slowFor time.Duration) bool {
	f.tierMu.Lock()
	be := f.tiers[server]
	f.tierMu.Unlock()
	if be == nil {
		return false
	}
	switch kind {
	case failure.PFSTornWrite:
		be.FailNextWriteAt(pfs.FaultTruncate, offset)
	case failure.PFSPartialWrite:
		be.FailNextWriteAt(pfs.FaultPartial, offset)
	case failure.PFSENOSPC:
		be.FailNextWriteAt(pfs.FaultENOSPC, -1)
	case failure.PFSBitRot:
		var g0 []string
		for _, name := range be.List("tier/") {
			if strings.HasSuffix(name, "/g0") {
				g0 = append(g0, name)
			}
		}
		if len(g0) == 0 {
			return false
		}
		if offset < 0 {
			offset = 0
		}
		be.Corrupt(g0[offset%len(g0)], offset)
	case failure.PFSSlowIO:
		be.SetSlowIO(200 * time.Microsecond)
		time.AfterFunc(slowFor, func() { be.SetSlowIO(0) })
	default:
		return false
	}
	return true
}

// disarmTiers clears every pending one-shot write fault and slow-I/O
// window, so a post-soak scrub's healing writes are not sabotaged.
func (f *faultGroup) disarmTiers() {
	f.tierMu.Lock()
	defer f.tierMu.Unlock()
	for _, be := range f.tiers {
		be.FailNextWriteAt(pfs.FaultNone, -1)
		be.SetSlowIO(0)
	}
}
