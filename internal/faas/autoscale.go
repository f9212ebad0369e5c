package faas

import (
	"fmt"
	"time"

	"eaao/internal/simtime"
)

// Autoscaling (§2.2): beyond the connection-pinning Launch API (the paper's
// measurement setup: one WebSocket per instance), services can be driven by
// a request load. The autoscaler sizes the instance pool to
// ceil(concurrent demand / per-instance concurrency), scaling out through
// the same placement policy as Launch — so demand surges trigger the same
// base-host/helper-host behavior the attack exploits — and scaling in by
// idling excess instances, which the idle reaper then terminates gradually.

// DefaultMaxConcurrency is Cloud Run's default per-instance request
// concurrency. The paper's experiments configure 1 (each instance handles a
// single connection); ordinary services keep the default.
const DefaultMaxConcurrency = 80

// autoscaleInterval is the autoscaler's evaluation period.
const autoscaleInterval = 15 * time.Second

// SetDemand sets the service's sustained concurrent-request demand and
// starts (or re-targets) its autoscaler. A demand of zero releases all
// instances to idle. The first evaluation happens immediately; subsequent
// ones on a 15-second grid from that instant, so instance counts converge
// within one tick and then track demand changes.
func (s *Service) SetDemand(concurrent int) error {
	if concurrent < 0 {
		return fmt.Errorf("faas: negative demand")
	}
	s.demand = concurrent
	if s.autoscaling {
		s.wake()
	} else {
		s.autoscaling = true
		s.autoscaleTick(s.account.dc.platform.sched.Now())
	}
	return nil
}

// Demand returns the current configured concurrent-request demand.
func (s *Service) Demand() int { return s.demand }

// desiredInstances converts demand to an instance target.
func (s *Service) desiredInstances() int {
	mc := s.maxConcurrency
	if mc <= 0 {
		mc = DefaultMaxConcurrency
	}
	return (s.demand + mc - 1) / mc
}

// autoscaleTick evaluates the target once. It arms the next tick first, so
// the changes it makes find the tick pending and a new chain takes its place
// among same-instant ticks at its first evaluation. A tick that leaves the
// target equal to activeCount then parks: every later tick would find
// nothing to do until demand or activeCount changes, and each such change
// wakes it (wake). An ArmTick chain keeps its place across parks, so the
// ticks that do fire run at the instants and in the order an unbroken chain
// would give them.
func (s *Service) autoscaleTick(now simtime.Time) {
	sched := s.account.dc.platform.sched
	s.lastTick = now
	sched.ArmTick(&s.tickEvent, now.Add(autoscaleInterval), s)
	target := s.desiredInstances()
	active := s.activeCount
	switch {
	case target > active:
		// Scale out through the regular launch path so demand bookkeeping
		// (hot streaks, helper unlocking) behaves identically to Launch.
		// Launch(target) is scale-to-target, not create-target: the `active`
		// connected instances are reused as-is and only the shortfall
		// target-active is created (TestAutoscaleLaunchesShortfallOnly pins
		// this), so a converged service creates nothing here.
		if _, err := s.Launch(target); err != nil {
			// Quota exhaustion: serve what we can at the cap. Scaling to the
			// quota q creates at most the capped shortfall q-active; when the
			// failure was not the quota (a fault-plane rejection), target ≤ q
			// and this tick simply skips — the next one retries.
			if q := s.account.Quota(); target > q && q > active {
				_, _ = s.Launch(q)
			}
		}
	case target < active:
		s.scaleIn(active - target)
	}
	switch {
	case s.demand == 0 && s.activeCount == 0:
		// Nothing to manage until demand returns: the chain ends, and a
		// later one takes a new place.
		s.autoscaling = false
		sched.Cancel(&s.tickEvent)
		s.tickEvent = simtime.Event{}
	case s.desiredInstances() == s.activeCount:
		sched.Cancel(&s.tickEvent) // park
	}
}

// wake re-arms a parked tick whose target no longer equals activeCount.
// SetDemand and every activeCount change call it; this check inlines there.
func (s *Service) wake() {
	if s.autoscaling && !s.tickEvent.Pending() {
		s.armWoken()
	}
}

// armWoken arms a parked tick whose target is unmet at the first point of its
// 15 s grid after now: the instant the unbroken chain's next tick would have
// found the change.
func (s *Service) armWoken() {
	if s.desiredInstances() == s.activeCount {
		return
	}
	sched := s.account.dc.platform.sched
	k := sched.Now().Sub(s.lastTick)/autoscaleInterval + 1
	sched.ArmTick(&s.tickEvent, s.lastTick.Add(k*autoscaleInterval), s)
}

// scaleIn idles the n most recently created active instances (LIFO: the
// oldest instances are the warmest and are kept serving).
func (s *Service) scaleIn(n int) {
	now := s.account.dc.platform.sched.Now()
	sched := s.account.dc.platform.sched
	p := s.account.dc.profile
	idled := 0
	for i := len(s.insts) - 1; i >= 0 && idled < n; i-- {
		inst := s.insts[i]
		if inst == nil || inst.state != StateActive {
			continue
		}
		inst.goIdle(now)
		delay := p.IdleGrace + time.Duration(s.rng.Range(0, float64(p.IdleTerminationSpan)))
		at := now.Add(delay)
		inst.termAt = at
		sched.Cancel(&inst.termEvent)
		sched.ArmHandler(&inst.termEvent, at, inst)
		idled++
	}
}
