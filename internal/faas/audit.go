package faas

import (
	"fmt"

	"eaao/internal/simtime"
)

// Audit checks that the region holds only its own objects and that
// residency and service slots agree. It returns the first violation found:
//
//   - every host is dc.hosts[id] and belongs to dc, every host an instance
//     or a guest's environment points at is one of them, and every entry of
//     an account's pools and a service's helper set is one of their ids;
//   - every live instance sits at its slot in both its host's resident list
//     and its service's instance list, every resident is such an instance,
//     and each service's tombstone count is deadInsts;
//   - each service's activeCount is its number of active instances, and an
//     autoscaling service's tick is pending or parked with the target met
//     (a parked tick runs again only when a change wakes it);
//   - every nursery cohort is this region's and pending, deadlines rise
//     from oldest to newest, and every non-terminated member is one of the
//     region's live instances (terminated members stay until the boundary,
//     which skips them);
//   - no lifecycle-timer slot on the free list is pending or listed twice,
//     and none is a live instance's timer;
//   - the scheduler's queue is a heap by (deadline, seq) whose events each
//     record their own slot (simtime.Scheduler.Seated).
//
// Snapshot tests run it on the original world and on every fork: a fork
// that points back into the snapshot fails it.
func (dc *DataCenter) Audit() error {
	residents, live := 0, 0
	for i, h := range dc.hosts {
		if int(h.id) != i || h.dc != dc {
			return fmt.Errorf("faas: audit: dc.hosts[%d] is not this region's host %d", i, i)
		}
		for slot, inst := range h.instances {
			if inst == nil || inst.host != h || inst.hostSlot != slot {
				return fmt.Errorf("faas: audit: host %d resident slot %d does not hold its instance", h.id, slot)
			}
		}
		residents += len(h.instances)
	}
	free := make(map[*simtime.Event]bool, len(dc.lifeFree))
	for _, e := range dc.lifeFree {
		if e.Pending() || free[e] {
			return fmt.Errorf("faas: audit: the lifecycle free list holds a pending or repeated timer slot")
		}
		free[e] = true
	}
	for _, a := range dc.acctSeq {
		pools := [][]HostID{a.basePool, a.helpers}
		for _, s := range a.svcSeq {
			if st, ok := s.policyState.(*cloudRunState); ok {
				pools = append(pools, st.helpers)
			}
			dead, active := 0, 0
			for slot, inst := range s.insts {
				switch {
				case inst == nil:
					dead++
					continue
				case inst.service != s || inst.slot != slot || inst.state == StateTerminated:
					return fmt.Errorf("faas: audit: service %s/%s slot %d holds instance %s of another slot or service, or terminated", a.id, s.name, slot, inst.ID())
				case !dc.ownsHost(inst.host) || inst.hostSlot >= len(inst.host.instances) || inst.host.instances[inst.hostSlot] != inst:
					return fmt.Errorf("faas: audit: instance %s is not resident at its slot on one of the region's hosts", inst.ID())
				case inst.guest != &inst.guestStore || !inst.guest.RunsOn(inst.host):
					return fmt.Errorf("faas: audit: instance %s's guest runs on another host", inst.ID())
				case free[inst.lifeEvent]:
					return fmt.Errorf("faas: audit: instance %s's lifecycle timer is on the free list", inst.ID())
				}
				if inst.state == StateActive {
					active++
				}
			}
			if dead != s.deadInsts {
				return fmt.Errorf("faas: audit: service %s/%s has %d tombstones, deadInsts %d", a.id, s.name, dead, s.deadInsts)
			}
			if active != s.activeCount {
				return fmt.Errorf("faas: audit: service %s/%s has %d active instances, activeCount %d", a.id, s.name, active, s.activeCount)
			}
			if s.autoscaling && !s.tickEvent.Pending() && s.desiredInstances() != s.activeCount {
				return fmt.Errorf("faas: audit: service %s/%s parked its autoscale tick with target %d unmet (%d active)", a.id, s.name, s.desiredInstances(), s.activeCount)
			}
			live += len(s.insts) - dead
		}
		for _, pool := range pools {
			for _, id := range pool {
				if id < 0 || int(id) >= len(dc.hosts) {
					return fmt.Errorf("faas: audit: a host pool of account %s holds host id %d, not one of the region's %d", a.id, id, len(dc.hosts))
				}
			}
		}
	}
	if live != residents {
		return fmt.Errorf("faas: audit: %d live instances but %d host residents", live, residents)
	}
	for i, c := range dc.cohorts {
		if c.dc != dc || !c.ev.Pending() || i > 0 && c.ev.Deadline() <= dc.cohorts[i-1].ev.Deadline() {
			return fmt.Errorf("faas: audit: nursery cohort %d of %d is not this region's, not pending, or not due after the cohort before it", i, len(dc.cohorts))
		}
		for _, inst := range c.insts {
			s := inst.service
			a := s.account
			owned := dc.accounts[a.id] == a && a.services[s.name] == s && inst.slot < len(s.insts) && s.insts[inst.slot] == inst
			if inst.state != StateTerminated && !owned {
				return fmt.Errorf("faas: audit: nursery member %s is not one of the region's instances", inst.ID())
			}
		}
	}
	if err := dc.platform.sched.Seated(); err != nil {
		return fmt.Errorf("faas: audit: %w", err)
	}
	return nil
}

// ownsHost reports whether h is one of the region's hosts.
func (dc *DataCenter) ownsHost(h *Host) bool {
	return h != nil && int(h.id) < len(dc.hosts) && dc.hosts[h.id] == h
}
