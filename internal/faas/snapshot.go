package faas

import (
	"fmt"

	"eaao/internal/simtime"
)

// World snapshots: copy-on-write forking of a fully built platform.
//
// Trial fan-out (runTrials, campaign sweeps, fleet shards) historically
// rebuilt the world from the root seed for every trial — at fleet scale,
// world construction dominates the experiment wall clock. A Snapshot freezes
// one deep copy of the platform; each Restore forks an independent, fully
// independent world from it in O(live state) — no RNG replay, no
// re-derivation, no host re-materialization. Forks are byte-identical
// continuations of the snapshot instant: every RNG stream resumes at its
// exact position, the event queue keeps its deadlines and tie-break
// sequence numbers, and lazily-materialized hosts stay unmaterialized (a
// fork pays only for the hosts the original had touched).
//
// What cannot be snapshotted — all three capture state that lives outside
// the world, which a deep copy cannot follow:
//
//   - pending closure events (Scheduler.At/After/Schedule), such as
//     experiment-scheduled callbacks. The event kernel and every platform
//     timer use intrusive Handler events, which remap cleanly; mid-callback
//     snapshots error.
//   - instances carrying OnSIGTERM or SetWorkload callbacks.
//   - an installed PlacementTracer.
//
// Snapshot while any of these exist returns an error rather than a
// silently-diverging fork.

// Snapshot is a frozen deep copy of a Platform at one instant. It is
// immutable: Restore forks fresh platforms from it any number of times, and
// neither the original platform nor any fork can reach back into it.
type Snapshot struct {
	world *Platform
}

// Snapshot deep-copies the platform — RNG stream positions, the kernel event
// heap, accounts, services, live instances, and materialized host state —
// into an immutable Snapshot that Restore can fork independent worlds from.
func (p *Platform) Snapshot() (*Snapshot, error) {
	w, err := clonePlatform(p)
	if err != nil {
		return nil, err
	}
	return &Snapshot{world: w}, nil
}

// Restore forks a new Platform from the snapshot. The fork is a
// byte-identical continuation of the snapshotted world: driving it through
// any sequence of operations produces exactly the states and draws the
// original platform would have produced from the snapshot instant. Each call
// returns a fully independent world.
func (s *Snapshot) Restore() (*Platform, error) {
	return clonePlatform(s.world)
}

// MustRestore is Restore, panicking on error. A snapshot that was taken
// successfully always restores — Restore errors only indicate corruption —
// so fan-out loops use this form.
func (s *Snapshot) MustRestore() *Platform {
	p, err := s.Restore()
	if err != nil {
		panic(err)
	}
	return p
}

// worldClone carries the old-to-new identity maps of one platform clone;
// remapEvent consults them to rebind the scheduler's pending events to
// their cloned owners.
type worldClone struct {
	dcs   map[*DataCenter]*DataCenter
	hosts map[*Host]*Host
	insts map[*Instance]*Instance
	svcs  map[*Service]*Service
	err   error
}

func clonePlatform(src *Platform) (*Platform, error) {
	np := &Platform{
		rng:     src.rng.Clone(),
		regions: make(map[Region]*DataCenter, len(src.regions)),
		order:   append([]Region(nil), src.order...),
		markSeq: src.markSeq,
	}
	cl := &worldClone{
		dcs:   make(map[*DataCenter]*DataCenter, len(src.regions)),
		hosts: make(map[*Host]*Host),
		insts: make(map[*Instance]*Instance),
		svcs:  make(map[*Service]*Service),
	}
	for _, r := range src.order {
		ndc, err := cloneDataCenter(np, src.regions[r], cl)
		if err != nil {
			return nil, err
		}
		np.regions[r] = ndc
	}
	sched, err := src.sched.Clone(cl.remapEvent)
	if cl.err != nil {
		return nil, cl.err
	}
	if err != nil {
		return nil, fmt.Errorf("faas: snapshot: %w", err)
	}
	np.sched = sched
	return np, nil
}

func cloneDataCenter(np *Platform, odc *DataCenter, cl *worldClone) (*DataCenter, error) {
	if odc.tracer != nil {
		return nil, fmt.Errorf("faas: snapshot: region %s has a placement tracer installed; tracers capture state outside the world", odc.profile.Name)
	}
	ndc := &DataCenter{
		platform: np,
		profile:  odc.profile,
		rng:      odc.rng.Clone(),
		// bootTimes is immutable after construction and identical across
		// forks; sharing it saves the largest remaining per-fork slice.
		bootTimes:     odc.bootTimes,
		liveHosts:     odc.liveHosts,
		accounts:      make(map[string]*Account, len(odc.accounts)),
		nextInst:      odc.nextInst,
		churnHazard:   odc.churnHazard,
		preemptHazard: odc.preemptHazard,
		lifeSeed:      odc.lifeSeed,
		lifeMix1:      odc.lifeMix1,
		nurseryAt:     odc.nurseryAt,
		policy:        odc.policy,
		traceSeq:      odc.traceSeq,
		faults:        odc.faults,
		faultCounters: odc.faultCounters,
		liveInstances: odc.liveInstances,
	}
	// Selection and derivation scratch is dead between operations by
	// contract, so the fork starts with fresh (empty) scratch. The lifecycle
	// event pool is likewise rebuilt: pool slot identity is invisible to the
	// simulation, and remapEvent leases fresh slots for pending timers.
	cl.dcs[odc] = ndc
	ndc.launchFaultRNG = odc.launchFaultRNG.Clone()
	ndc.preemptRNG = odc.preemptRNG.Clone()
	ndc.channelFaultRNG = odc.channelFaultRNG.Clone()
	ndc.probeFaultRNG = odc.probeFaultRNG.Clone()

	// Hosts: one contiguous store, like construction. Value-copy preserves
	// materialized state (model, counter, refined frequency, misfire window)
	// and identity fields alike; unmaterialized shells stay shells, so the
	// fork keeps the lazy fleet's cost profile. The resident-instance lists
	// are re-pointed slot for slot as instances clone below.
	store := make([]Host, len(odc.hosts))
	ndc.hosts = make([]*Host, len(odc.hosts))
	for i, oh := range odc.hosts {
		nh := &store[i]
		*nh = *oh
		nh.dc = ndc
		if oh.noiseRNG != nil {
			nh.noiseRNG = oh.noiseRNG.Clone()
		}
		nh.instances = nil
		if n := len(oh.instances); n > 0 {
			nh.instances = make([]*Instance, n)
		}
		ndc.hosts[i] = nh
		cl.hosts[oh] = nh
	}

	for _, oa := range odc.acctSeq {
		na, err := cloneAccount(ndc, oa, cl)
		if err != nil {
			return nil, err
		}
		ndc.accounts[oa.id] = na
		ndc.acctSeq = append(ndc.acctSeq, na)
	}

	// Background traffic is data plus intrusive events, so it deep-copies:
	// tenants are value structs whose service pointers remap through the
	// account clones above, the stateless draw streams travel as (mixBase,
	// draws) counters, and each tenant's pending re-draw timer rebinds in
	// remapEvent by rank. This is what keeps loaded worlds fork-compatible
	// where closure-backed workloads (SetWorkload) cannot be.
	if ot := odc.traffic; ot != nil {
		nt := &trafficState{
			dc:        ndc,
			model:     ot.model,
			mix1:      ot.mix1,
			rejectRNG: ot.rejectRNG.Clone(),
			capacity:  ot.capacity,
			redraws:   ot.redraws,
			rejects:   ot.rejects,
			tenants:   make([]trafficTenant, len(ot.tenants)),
		}
		for i := range ot.tenants {
			o := &ot.tenants[i]
			n := &nt.tenants[i]
			n.state = nt
			n.rank = o.rank
			n.mixBase = o.mixBase
			n.base = o.base
			n.phase = o.phase
			n.draws = o.draws
			n.svc = cl.svcs[o.svc]
			if n.svc == nil {
				return nil, fmt.Errorf("faas: snapshot: traffic tenant %d's service missing from the clone", i)
			}
		}
		ndc.traffic = nt
	}

	// Every slot of every host's resident list must have been claimed by a
	// cloned instance (live instances are exactly the service-reachable
	// ones); a hole means the identity maps are inconsistent.
	for i, nh := range ndc.hosts {
		for slot, inst := range nh.instances {
			if inst == nil {
				return nil, fmt.Errorf("faas: snapshot: host %d resident slot %d not reclaimed by any live instance", i, slot)
			}
		}
	}
	return ndc, nil
}

func cloneAccount(ndc *DataCenter, oa *Account, cl *worldClone) (*Account, error) {
	na := &Account{
		dc:       ndc,
		id:       oa.id,
		rng:      oa.rng.Clone(),
		group:    oa.group,
		basePool: remapHosts(oa.basePool, cl),
		helpers:  remapHosts(oa.helpers, cl),
		services: make(map[string]*Service, len(oa.services)),
		quota:    oa.quota,
		bill:     oa.bill,
	}
	for _, os := range oa.svcSeq {
		ns, err := cloneService(na, os, cl)
		if err != nil {
			return nil, err
		}
		na.services[os.name] = ns
		na.svcSeq = append(na.svcSeq, ns)
	}
	return na, nil
}

func cloneService(na *Account, os *Service, cl *worldClone) (*Service, error) {
	ns := &Service{
		account:         na,
		name:            os.name,
		size:            os.size,
		gen:             os.gen,
		rng:             os.rng.Clone(),
		deadInsts:       os.deadInsts,
		hasLaunched:     os.hasLaunched,
		lastLaunch:      os.lastLaunch,
		hotStreak:       os.hotStreak,
		maxConcurrency:  os.maxConcurrency,
		demand:          os.demand,
		autoscaling:     os.autoscaling,
		activeCount:     os.activeCount,
		seenHosts:       append(hostBitset(nil), os.seenHosts...),
		coldLaunchHosts: os.coldLaunchHosts,
		usedLaunchHosts: os.usedLaunchHosts,
	}
	cl.svcs[os] = ns
	switch st := os.policyState.(type) {
	case nil:
	case *cloudRunState:
		ns.policyState = &cloudRunState{helpers: remapHosts(st.helpers, cl)}
	default:
		return nil, fmt.Errorf("faas: snapshot: service %s/%s has unsupported policy state %T", na.id, os.name, st)
	}
	// Instance list layout — including nil tombstones — is preserved exactly:
	// iteration order over insts drives order-sensitive draws (churn,
	// scale-in) and the compaction trigger counts tombstones.
	if len(os.insts) > 0 {
		ns.insts = make([]*Instance, len(os.insts))
		for i, oi := range os.insts {
			if oi == nil {
				continue
			}
			ni, err := cloneInstance(ns, oi, cl)
			if err != nil {
				return nil, err
			}
			ns.insts[i] = ni
		}
	}
	return ns, nil
}

func cloneInstance(ns *Service, oi *Instance, cl *worldClone) (*Instance, error) {
	if oi.sigterm != nil {
		return nil, fmt.Errorf("faas: snapshot: instance %s has an OnSIGTERM callback; callbacks capture state outside the world", oi.ID())
	}
	if oi.workload != nil {
		return nil, fmt.Errorf("faas: snapshot: instance %s has a workload model installed; callbacks capture state outside the world", oi.ID())
	}
	ndc := ns.account.dc
	ni := ndc.allocInstance()
	*ni = *oi
	ni.service = ns
	nh := cl.hosts[oi.host]
	if nh == nil {
		return nil, fmt.Errorf("faas: snapshot: instance %s resides on an unknown host", oi.ID())
	}
	ni.host = nh
	nh.instances[oi.hostSlot] = ni
	// The guest's host-environment handle must point at the cloned host; all
	// other guest state (offsets, epochs, read counts) is value-copied.
	oi.guestStore.CloneInto(&ni.guestStore, nh)
	ni.guest = &ni.guestStore
	// Timers start detached; remapEvent rebinds pending ones with their
	// original deadlines and tie-break sequence (and leases a fresh pooled
	// slot for a pending lifecycle timer).
	ni.termEvent = simtime.Event{}
	ni.lifeEvent = nil
	cl.insts[oi] = ni
	return ni, nil
}

func remapHosts(hosts []*Host, cl *worldClone) []*Host {
	if hosts == nil {
		return nil
	}
	out := make([]*Host, len(hosts))
	for i, h := range hosts {
		out[i] = cl.hosts[h]
	}
	return out
}

// remapEvent rebinds one pending scheduler event to its cloned owner. The
// handler identifies the owner; the event address distinguishes which of the
// owner's timers is pending.
func (cl *worldClone) remapEvent(old *simtime.Event, h simtime.Handler) (*simtime.Event, simtime.Handler) {
	switch o := h.(type) {
	case *Instance:
		ni := cl.insts[o]
		if ni == nil {
			return cl.fail("pending timer of an instance missing from the clone")
		}
		if old == &o.termEvent {
			return &ni.termEvent, ni
		}
		if old == o.lifeEvent {
			ni.lifeEvent = ni.service.account.dc.allocLifeEvent()
			return ni.lifeEvent, ni
		}
		return cl.fail("pending instance event matches neither the idle reaper nor the lifecycle timer")
	case *Service:
		ns := cl.svcs[o]
		if ns == nil {
			return cl.fail("pending timer of a service missing from the clone")
		}
		if old == &o.decayEvent {
			return &ns.decayEvent, ns
		}
		if old == &o.tickEvent {
			return &ns.tickEvent, ns
		}
		return cl.fail("pending service event matches neither the decay nor the autoscale timer")
	case *trafficTenant:
		ndc := cl.dcs[o.state.dc]
		if ndc == nil || ndc.traffic == nil || o.rank >= len(ndc.traffic.tenants) {
			return cl.fail("pending re-draw timer of a traffic tenant missing from the clone")
		}
		nt := &ndc.traffic.tenants[o.rank]
		return &nt.ev, nt
	case *lifeCohort:
		ndc := cl.dcs[o.dc]
		if ndc == nil {
			return cl.fail("pending nursery cohort of a region missing from the clone")
		}
		nc := &lifeCohort{dc: ndc, insts: make([]*Instance, 0, len(o.insts))}
		for _, oi := range o.insts {
			// A cohort may still reference members that terminated young;
			// the boundary handler skips them, so the clone drops them.
			if oi.state == StateTerminated {
				continue
			}
			ni := cl.insts[oi]
			if ni == nil {
				return cl.fail("nursery cohort member missing from the clone")
			}
			nc.insts = append(nc.insts, ni)
		}
		// Only the region's current nursery keeps collecting newcomers;
		// older cohorts are reachable solely through their pending event.
		if o == o.dc.nursery {
			ndc.nursery = nc
		}
		return &nc.ev, nc
	default:
		cl.err = fmt.Errorf("faas: snapshot: pending event with unknown handler type %T (experiment-owned timers cannot be snapshotted)", h)
		return nil, nil
	}
}

func (cl *worldClone) fail(msg string) (*simtime.Event, simtime.Handler) {
	if cl.err == nil {
		cl.err = fmt.Errorf("faas: snapshot: %s", msg)
	}
	return nil, nil
}
