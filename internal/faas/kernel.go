package faas

import (
	"math"
	"time"

	"eaao/internal/randx"
	"eaao/internal/simtime"
)

// The per-instance lifecycle kernel.
//
// Churn recycling and fault-plane preemption are modelled as per-hour
// probabilities p (RegionProfile.InstanceChurnPerHour,
// FaultPlan.PreemptionRatePerHour). The original implementation, an hourly
// sweep that flipped a Bernoulli coin per instance, was O(fleet) per hour
// regardless of how much actually happened — prohibitive at the 10⁵–10⁶
// instances the scale experiment runs. The kernel instead schedules one event
// per instance: work is proportional to the number of lifecycle transitions
// that occur, not to the number of instances that exist.
//
// A connected instance keeps the sweep's per-hour hit probability p: the
// kernel draws exponential inter-event delays with rate λ = -ln(1-p) per
// hour, whose per-hour survival probability is e^{-λ} = 1-p. Churn and
// preemption compete as summed hazards, and a single draw picks which one
// fired — the standard competing-risks construction, half the events of two
// independent timers.
//
// Determinism: per-instance delays come from stateless hash draws
// randx.Mix3(dc.lifeSeed, instance seq, draw#) — no per-instance generator
// state, no draw-order coupling between instances. Event-heap ordering is
// deterministic (time, then insertion seq).
//
// Two deliberate semantic refinements over the hourly sweep:
//
//   - Immunity: a freshly created instance is not eligible for churn or
//     preemption until one full lifecycleInterval has elapsed. The sweep's
//     preemption pass could kill a replacement instance in the same sweep
//     that created it; the kernel makes that impossible by construction.
//     Immunity also pays for the kernel's cheapest trick: all instances born
//     at one instant share a single nursery-cohort event at birth +
//     lifecycleInterval (lifeCohort), so a 200-instance launch burst costs
//     one heap insertion, each survivor draws its exponential delay at the
//     boundary, and an instance that dies young never touches the scheduler
//     at all.
//
//   - Idle instances carry no hazard (the sweep only ever drew for
//     StateActive instances): a timer that finds its instance idle dies, and
//     warm reactivation re-arms it with a fresh exponential delay —
//     memorylessness makes the fresh draw distributionally identical to
//     suspending the hazard. (An idle blip shorter than the pending delay
//     never surfaces at all: the old timer stays armed across it, just as a
//     between-sweeps blip was invisible to the hourly scan.)

// lifecycleInterval is the new-instance immunity span (the old sweep's
// period): the first churn/preemption draw of an instance happens at
// creation + lifecycleInterval + Exp(λ).
const lifecycleInterval = time.Hour

// hazardPerHour converts a per-hour event probability into the exponential
// rate with the same per-hour survival: λ = -ln(1-p).
func hazardPerHour(p float64) float64 {
	if p <= 0 {
		return 0
	}
	return -math.Log1p(-p)
}

// initLifecycleKernel resolves the region's lifecycle hazards and the seed of
// the per-instance draw streams. Derivation consumes no parent randomness, so
// regions with zero churn and zero preemption remain byte-identical to a
// build without the kernel.
func (dc *DataCenter) initLifecycleKernel() {
	dc.churnHazard = hazardPerHour(dc.profile.InstanceChurnPerHour)
	dc.preemptHazard = hazardPerHour(dc.faults.PreemptionRatePerHour)
	dc.lifeSeed = randx.DeriveSeed(dc.seed, "lifecycle")
	dc.lifeMix1 = randx.MixInit(dc.lifeSeed)
}

// lifeU returns the instance's next uniform draw in [0,1) from its stateless
// lifecycle stream: bit-identical to randx.Mix3(lifeSeed, seq, draw#), with
// the first two mixer rounds pre-folded into lifeBase at creation.
func (i *Instance) lifeU() float64 {
	u := randx.Unit(randx.MixStep(i.lifeBase, uint64(i.lifeDraws)))
	i.lifeDraws++
	return u
}

// lifecycleDelay draws the next exponential inter-event delay at the combined
// hazard rate (per hour).
func (i *Instance) lifecycleDelay(rate float64) time.Duration {
	u := i.lifeU()
	return time.Duration(-math.Log(1-u) / rate * float64(time.Hour))
}

// lifeCohort is the nursery batch of one creation instant: every instance
// born at the same virtual time shares a single boundary event at
// birth + lifecycleInterval, since none of them can suffer churn or
// preemption before then (immunity). Launching a burst of N instances
// therefore costs one heap insertion instead of N — instance creation is the
// simulator's hottest path — and an instance that dies young never touches
// the scheduler at all. At the boundary the cohort draws each survivor's
// exponential delay and arms its individual pooled timer.
type lifeCohort struct {
	dc    *DataCenter
	insts []*Instance
	ev    simtime.Event
}

// HandleEvent fires the cohort's immunity boundary (the cohort is its own
// event's simtime.Handler).
func (c *lifeCohort) HandleEvent(_ *simtime.Event, now simtime.Time) {
	dc := c.dc
	rate := dc.churnHazard + dc.preemptHazard
	for _, inst := range c.insts {
		// Terminated instances are gone for good; idle ones carry no hazard
		// (activate resumes them now that the immunity interval has passed).
		if inst.state != StateActive {
			continue
		}
		// A warm reactivation at exactly the boundary instant, ordered just
		// before this event, may have armed the timer already.
		if inst.lifeEvent != nil && inst.lifeEvent.Pending() {
			continue
		}
		dc.armLifecycle(inst, inst.lifecycleDelay(rate))
	}
	clear(c.insts) // drop the instance pointers so the GC can reclaim them
	c.insts = c.insts[:0]
	// Boundaries fire in creation order, so c is the oldest pending cohort.
	dc.cohorts[0] = nil
	dc.cohorts = dc.cohorts[1:]
	dc.cohortFree = append(dc.cohortFree, c)
}

// allocCohort leases a cohort from the pool, or allocates a fresh one.
func (dc *DataCenter) allocCohort() *lifeCohort {
	if n := len(dc.cohortFree); n > 0 {
		c := dc.cohortFree[n-1]
		dc.cohortFree[n-1] = nil
		dc.cohortFree = dc.cohortFree[:n-1]
		return c
	}
	return &lifeCohort{dc: dc}
}

// scheduleLifecycle enrolls a new instance in the newest nursery cohort,
// opening one (and arming its boundary event) when this is the first
// creation of the instant. No-op when both hazards are zero. Boundaries are
// armed at now + lifecycleInterval with now never decreasing, so cohorts
// fire in the order they open.
func (dc *DataCenter) scheduleLifecycle(inst *Instance, now simtime.Time) {
	rate := dc.churnHazard + dc.preemptHazard
	if rate <= 0 {
		return
	}
	if len(dc.cohorts) == 0 || dc.nurseryAt != now {
		c := dc.allocCohort()
		dc.nurseryAt = now
		dc.cohorts = append(dc.cohorts, c)
		dc.platform.sched.ArmHandlerAfter(&c.ev, lifecycleInterval, c)
	}
	c := dc.cohorts[len(dc.cohorts)-1]
	c.insts = append(c.insts, inst)
}

// resumeLifecycle re-arms the hazard of a warm-reused instance whose timer
// died while it was idle. No immunity: the instance is not new, and the
// memoryless resume is exactly the suspended-hazard semantics. An instance
// reactivated before its immunity boundary is still covered by its nursery
// cohort, which arms it at the boundary.
func (dc *DataCenter) resumeLifecycle(inst *Instance, now simtime.Time) {
	rate := dc.churnHazard + dc.preemptHazard
	if rate <= 0 || (inst.lifeEvent != nil && inst.lifeEvent.Pending()) {
		return
	}
	if now.Sub(inst.createdAt) < lifecycleInterval {
		return
	}
	dc.armLifecycle(inst, inst.lifecycleDelay(rate))
}

// lifeSlabSize is the chunk size of the data center's lifecycle-event pool.
const lifeSlabSize = 512

// allocLifeEvent leases a timer slot from the pool: the free list first,
// then the current slab chunk. Slots recycle through terminate, so the
// steady-state allocation cost of the kernel's timers is zero no matter how
// many instances churn through the region.
func (dc *DataCenter) allocLifeEvent() *simtime.Event {
	if n := len(dc.lifeFree); n > 0 {
		e := dc.lifeFree[n-1]
		dc.lifeFree[n-1] = nil
		dc.lifeFree = dc.lifeFree[:n-1]
		return e
	}
	if len(dc.lifeSlab) == 0 {
		dc.lifeSlab = make([]simtime.Event, lifeSlabSize)
	}
	e := &dc.lifeSlab[0]
	dc.lifeSlab = dc.lifeSlab[1:]
	return e
}

// armLifecycle schedules the instance's next lifecycle firing on the
// instance's pooled intrusive event — zero steady-state allocations per arm,
// the instance itself is the simtime.Handler — so terminate can cancel it: a
// dead instance must not leave a stale entry degrading every later heap
// operation.
func (dc *DataCenter) armLifecycle(inst *Instance, delay time.Duration) {
	if inst.lifeEvent == nil {
		inst.lifeEvent = dc.allocLifeEvent()
	}
	dc.platform.sched.ArmHandlerAfter(inst.lifeEvent, delay, inst)
}

// cancelLifecycle removes the instance's pending timer, if any, and returns
// the slot to the pool. Only terminate may call it: the slot is reused by
// the next arm, so no stale pointer to it may survive.
func (dc *DataCenter) cancelLifecycle(inst *Instance) {
	e := inst.lifeEvent
	if e == nil {
		return
	}
	dc.platform.sched.Cancel(e)
	inst.lifeEvent = nil
	dc.lifeFree = append(dc.lifeFree, e)
}

// HandleEvent dispatches the instance's intrusive timers (the Instance is
// the simtime.Handler for both its idle reaper and its lifecycle timer).
//
// The idle reaper (termEvent) terminates the instance if it is still idle
// and still due — a warm reactivation after the arm leaves the event in
// place, and this check is what makes the stale firing a no-op.
//
// The churn/preemption timer (lifeEvent): idleness lets the timer die (no
// hazard while disconnected; activate re-arms), and an active instance
// suffers whichever competing risk the type draw picks — churn recycles it
// onto a policy-directed host, preemption terminates it without replacement.
func (i *Instance) HandleEvent(e *simtime.Event, now simtime.Time) {
	if e == &i.termEvent {
		if i.state == StateIdle && i.termAt == now {
			i.terminate(now)
		}
		return
	}
	if i.state != StateActive {
		return
	}
	dc := i.service.account.dc
	rate := dc.churnHazard + dc.preemptHazard
	churn := dc.churnHazard > 0
	if churn && dc.preemptHazard > 0 {
		// Competing risks: the event is a churn with probability λc/(λc+λp).
		churn = i.lifeU()*rate < dc.churnHazard
	}
	if churn {
		// recycle creates the replacement through createInstance, which arms
		// a fresh timer with full immunity — a replacement can never be hit
		// in the interval it was born, unlike under the old hourly sweep.
		i.service.recycle(i, now)
		return
	}
	i.terminate(now)
	dc.faultCounters.Preemptions++
}
