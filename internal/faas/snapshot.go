package faas

import "fmt"

// World snapshots: deep-copy forking of a fully built platform.
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
// A fork copies only state it can draw from or mutate. The platform, its
// regions and accounts only derive sub-streams, which reads a seed and draws
// nothing, so they hold a seed word; the streams that draw (services, host
// noise, fault planes, congestion) are cloned at their position. Host pools
// and helper sets are HostID slices, immutable once built (copy-on-write),
// that the world, its snapshot and every fork share. The other pointers are
// remapped by index, not through identity maps: a host's counterpart is the
// cloned region's hosts[id], and an instance's is the cloned service's
// insts[slot], whose layout (tombstones included) is copied exactly.
//
// Every platform timer (idle reapers, lifecycle timers, nursery cohorts,
// demand decay, autoscale ticks, traffic re-draws) is an intrusive event
// embedded in, or leased by, an owner the clone copies anyway. Each owner
// value-copies its events and reseats the pending ones into the fork's
// queue (simtime.Scheduler.Reseat), where they land in their original slots.
//
// What cannot be snapshotted — all three capture state that lives outside
// the world, which a deep copy cannot follow:
//
//   - a pending event no world object owns, such as an experiment's own
//     timer: no owner reseats it, and the fork's queue keeps an empty slot.
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

func clonePlatform(src *Platform) (*Platform, error) {
	np := &Platform{
		seed:    src.seed,
		sched:   src.sched.Clone(),
		regions: make(map[Region]*DataCenter, len(src.regions)),
		order:   append([]Region(nil), src.order...),
		markSeq: src.markSeq,
	}
	for _, r := range src.order {
		ndc, err := cloneDataCenter(np, src.regions[r])
		if err != nil {
			return nil, err
		}
		np.regions[r] = ndc
	}
	if err := np.sched.Seated(); err != nil {
		return nil, fmt.Errorf("faas: snapshot: %w; experiment-owned timers cannot be snapshotted", err)
	}
	return np, nil
}

func cloneDataCenter(np *Platform, odc *DataCenter) (*DataCenter, error) {
	if odc.tracer != nil {
		return nil, fmt.Errorf("faas: snapshot: region %s has a placement tracer installed; tracers capture state outside the world", odc.profile.Name)
	}
	ndc := &DataCenter{
		platform: np,
		profile:  odc.profile,
		seed:     odc.seed,
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
	// simulation, and cloneInstance leases fresh slots for pending timers.
	ndc.launchFaultRNG = odc.launchFaultRNG.Clone()
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
		nh.instances = make([]*Instance, len(oh.instances))
		ndc.hosts[i] = nh
	}

	// svcs maps each service to its clone, for the traffic tenants and
	// nursery cohorts below.
	nsvc := 0
	for _, oa := range odc.acctSeq {
		nsvc += len(oa.svcSeq)
	}
	svcs := make(map[*Service]*Service, nsvc)
	for _, oa := range odc.acctSeq {
		na, err := cloneAccount(ndc, oa, svcs)
		if err != nil {
			return nil, err
		}
		ndc.accounts[oa.id] = na
		ndc.acctSeq = append(ndc.acctSeq, na)
	}

	// Background traffic is data plus intrusive events, so it deep-copies:
	// tenants are value structs whose service pointers remap through the
	// account clones above, the stateless draw streams travel as (mixBase,
	// draws) counters, and each tenant reseats its pending re-draw timer.
	// This is what keeps loaded worlds fork-compatible where closure-backed
	// workloads (SetWorkload) cannot be.
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
			n := &nt.tenants[i]
			*n = ot.tenants[i]
			n.state, n.svc = nt, svcs[n.svc]
			if n.svc == nil {
				return nil, fmt.Errorf("faas: snapshot: traffic tenant %d's service missing from the clone", i)
			}
			np.sched.Reseat(&n.ev, n)
		}
		ndc.traffic = nt
	}

	// Pending nursery cohorts, oldest first. A cohort may still reference
	// members that terminated young; the boundary handler skips them, so the
	// clone drops them.
	ndc.cohorts = make([]*lifeCohort, len(odc.cohorts))
	for i, oc := range odc.cohorts {
		nc := &lifeCohort{dc: ndc, insts: make([]*Instance, 0, len(oc.insts)), ev: oc.ev}
		for _, oi := range oc.insts {
			if oi.state == StateTerminated {
				continue
			}
			os, ns := oi.service, svcs[oi.service]
			if ns == nil || oi.slot >= len(os.insts) || os.insts[oi.slot] != oi {
				return nil, fmt.Errorf("faas: snapshot: nursery cohort member %s missing from the clone", oi.ID())
			}
			nc.insts = append(nc.insts, ns.insts[oi.slot])
		}
		np.sched.Reseat(&nc.ev, nc)
		ndc.cohorts[i] = nc
	}

	// Every slot of every host's resident list must have been claimed by a
	// cloned instance (live instances are exactly the service-reachable
	// ones); a hole means residency and service slots disagree.
	for i, nh := range ndc.hosts {
		for slot, inst := range nh.instances {
			if inst == nil {
				return nil, fmt.Errorf("faas: snapshot: host %d resident slot %d not reclaimed by any live instance", i, slot)
			}
		}
	}
	return ndc, nil
}

func cloneAccount(ndc *DataCenter, oa *Account, svcs map[*Service]*Service) (*Account, error) {
	na := &Account{
		dc:       ndc,
		id:       oa.id,
		seed:     oa.seed,
		group:    oa.group,
		basePool: oa.basePool,
		helpers:  oa.helpers,
		services: make(map[string]*Service, len(oa.services)),
		quota:    oa.quota,
		bill:     oa.bill,
	}
	for _, os := range oa.svcSeq {
		ns, err := cloneService(na, os)
		if err != nil {
			return nil, err
		}
		na.services[os.name] = ns
		na.svcSeq = append(na.svcSeq, ns)
		svcs[os] = ns
	}
	return na, nil
}

func cloneService(na *Account, os *Service) (*Service, error) {
	// Value-copy, like hosts and instances; the stream, the host bitset and
	// the instance list become the fork's own below, and the copied timers
	// are reseated into the fork's queue. The policy state is immutable
	// (cloudRunState), so the fork shares it.
	ns := new(Service)
	*ns = *os
	ns.account, ns.rng = na, os.rng.Clone()
	ns.seenHosts = append(hostBitset(nil), os.seenHosts...)
	ns.insts = nil
	sched := na.dc.platform.sched
	sched.Reseat(&ns.decayEvent, ns)
	sched.Reseat(&ns.tickEvent, ns)
	switch st := os.policyState.(type) {
	case nil, *cloudRunState:
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
			ni, err := cloneInstance(ns, oi)
			if err != nil {
				return nil, err
			}
			ns.insts[i] = ni
		}
	}
	return ns, nil
}

func cloneInstance(ns *Service, oi *Instance) (*Instance, error) {
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
	nh := ndc.hosts[oi.host.id]
	ni.host = nh
	nh.instances[oi.hostSlot] = ni
	// The guest's host-environment handle must point at the cloned host; all
	// other guest state (offsets, epochs, read counts) is value-copied.
	oi.guestStore.CloneInto(&ni.guestStore, nh)
	ni.guest = &ni.guestStore
	// The copied idle reaper is reseated as it is; a pending lifecycle timer
	// is copied into a freshly leased pooled slot.
	sched := ndc.platform.sched
	sched.Reseat(&ni.termEvent, ni)
	ni.lifeEvent = nil
	if oe := oi.lifeEvent; oe != nil && oe.Pending() {
		ni.lifeEvent = ndc.allocLifeEvent()
		*ni.lifeEvent = *oe
		sched.Reseat(ni.lifeEvent, ni)
	}
	return ni, nil
}
