package faas

import (
	"fmt"
	"math"
	"time"

	"eaao/internal/randx"
	"eaao/internal/sandbox"
	"eaao/internal/simtime"
)

// Service is one deployed function. Launching connections scales instances
// out through the orchestrator; disconnecting idles them; idle instances are
// reaped gradually.
type Service struct {
	account *Account
	name    string
	size    InstanceSize
	gen     sandbox.Gen
	rng     *randx.Source

	// insts holds non-terminated instances in creation order. Removal
	// tombstones the slot (nil) instead of shifting the tail — instance
	// churn made the O(n) shift the simulator's hottest memmove — so every
	// iteration over insts skips nil entries; the live order is unchanged,
	// keeping order-sensitive RNG draws (churn, scale-in) identical.
	// deadInsts counts tombstones; compaction runs when they reach half the
	// list.
	insts     []*Instance
	deadInsts int

	// policyState is the placement policy's opaque per-service state (e.g.
	// CloudRunPolicy keeps the preference-ordered helper set here).
	policyState any

	hasLaunched bool
	lastLaunch  simtime.Time
	hotStreak   int
	// decayEvent is the intrusive demand-decay timer (pending while a cold
	// transition is scheduled at lastLaunch + window); every launch cancels
	// and re-arms it. Both it and tickEvent fire through the Service's
	// simtime.Handler implementation, which tells them apart by address.
	decayEvent simtime.Event

	// Request-driven autoscaling (§2.2). activeCount mirrors the number of
	// StateActive instances incrementally (created/activated minus
	// idled/terminated) so the 15-second autoscale tick is O(1) instead of an
	// O(instances) scan. tickEvent is the intrusive tick timer, an ArmTick
	// chain that is pending or parked (see autoscaleTick); lastTick is the
	// instant of its latest evaluation, the origin a woken tick's grid
	// continues from.
	maxConcurrency int
	demand         int
	autoscaling    bool
	activeCount    int
	tickEvent      simtime.Event
	lastTick       simtime.Time

	// Image-locality accounting: hosts that have ever run this service
	// (indexed by HostID — host ids are dense indexes into dc.hosts), plus
	// per-launch counts of image-cold hosts (hosts used by a launch that
	// had never run the service — each costs an image pull and a slow
	// start).
	seenHosts       hostBitset
	coldLaunchHosts int
	usedLaunchHosts int
}

func newService(a *Account, name string, cfg ServiceConfig) *Service {
	rng := randx.New(randx.DeriveSeed(a.seed, "service", name))
	s := &Service{
		account:        a,
		name:           name,
		size:           cfg.Size,
		gen:            cfg.Gen,
		rng:            rng,
		maxConcurrency: cfg.MaxConcurrency,
	}
	s.seenHosts = newHostBitset(len(a.dc.hosts))
	s.policyState = a.dc.policy.NewService(s, rng.DeriveInto(&a.dc.deriveScratch, "helperset"))
	return s
}

// ColdHostFraction reports, across all launches so far, the fraction of
// per-launch host slots that were image-cold (the host had never run this
// service before that launch). Affinity placement drives this toward zero
// after the first launch; co-location-resistant random placement keeps it
// high — the defense's operational cost.
func (s *Service) ColdHostFraction() float64 {
	if s.usedLaunchHosts == 0 {
		return 0
	}
	return float64(s.coldLaunchHosts) / float64(s.usedLaunchHosts)
}

// Name returns the service name.
func (s *Service) Name() string { return s.name }

// Account returns the owning account.
func (s *Service) Account() *Account { return s.account }

// Size returns the container resource specification.
func (s *Service) Size() InstanceSize { return s.size }

// Gen returns the execution environment generation.
func (s *Service) Gen() sandbox.Gen { return s.gen }

// Instances returns the service's live (active or idle) instances in
// creation order.
func (s *Service) Instances() []*Instance {
	out := make([]*Instance, 0, len(s.insts)-s.deadInsts)
	for _, inst := range s.insts {
		if inst != nil {
			out = append(out, inst)
		}
	}
	return out
}

// ActiveInstances returns only the connected instances.
func (s *Service) ActiveInstances() []*Instance {
	var out []*Instance
	for _, inst := range s.insts {
		if inst != nil && inst.state == StateActive {
			out = append(out, inst)
		}
	}
	return out
}

// ActiveCount returns the number of connected instances. It is maintained
// incrementally, so it is O(1) where len(ActiveInstances()) is O(instances).
func (s *Service) ActiveCount() int { return s.activeCount }

// IdleCount returns the number of idle instances.
func (s *Service) IdleCount() int {
	n := 0
	for _, inst := range s.insts {
		if inst != nil && inst.state == StateIdle {
			n++
		}
	}
	return n
}

// Launch scales the service out to n concurrently connected instances
// (modeling n held connections, e.g. WebSockets, with one connection per
// instance as in the paper's setup). n is the total connection target, not a
// batch of additions: already-active instances count toward it as-is, idle
// instances are reused warm next, and only the remaining shortfall is created
// through the demand-dependent placement policy. It returns the n connected
// instances.
//
// Quota: because n is a total, bounding n by the per-service quota bounds the
// service's entire live footprint — idle instances only exist as leftovers of
// an earlier in-quota target, and new instances are only created after every
// idle one has been consumed, so no sequence of launches can push the live
// (active + idle) count past the quota. TestLaunchTotalsNeverExceedQuota pins
// this invariant.
func (s *Service) Launch(n int) ([]*Instance, error) {
	if n <= 0 {
		return nil, fmt.Errorf("faas: launch of %d instances", n)
	}
	p := s.account.dc.profile
	if q := s.account.Quota(); n > q {
		return nil, fmt.Errorf("faas: scaling %s/%s to %d instances exceeds its per-service quota of %d",
			s.account.id, s.name, n, q)
	}
	dc := s.account.dc
	now := dc.platform.sched.Now()

	// Congestion plane: past the traffic model's utilization knee the
	// orchestrator sheds launches probabilistically (ErrLaunchFault, so the
	// attack side's retry machinery engages). Background tenants pass
	// through the same check — their demand self-regulates under load.
	// Draws come from a dedicated stream, and only while traffic is
	// configured, so a quiet world draws nothing here.
	if ts := dc.traffic; ts != nil {
		if err := ts.launchCongested(s); err != nil {
			return nil, err
		}
	}

	// Fault plane: a transient platform failure either rejects the launch
	// up front (quota-throttle style, nothing happened) or aborts it
	// mid-batch after placement — the mid-batch path then rolls every
	// partially created instance back, so a failed launch never leaves
	// partial state or partial billing behind.
	abort := false
	if r := dc.faults.LaunchFailureRate; r > 0 && dc.launchFaultRNG.Bool(r) {
		if dc.launchFaultRNG.Bool(0.5) {
			abort = true
		} else {
			dc.faultCounters.LaunchRejections++
			return nil, fmt.Errorf("faas: %s/%s launch rejected: %w",
				s.account.id, s.name, ErrLaunchFault)
		}
	}

	// Demand bookkeeping: a launch arriving within the demand window of the
	// previous one marks the service as increasingly hot; otherwise the
	// service is cold and the policy reacts (dynamic regions resample part of
	// the base pool here). Under the event kernel, going cold is detected by
	// the decay timer each launch arms (demandDecay fires at window expiry,
	// whether or not another launch ever arrives); a launch therefore only
	// decays directly when it is the service's first, or in the corner case
	// where the timer is due at this very instant but ordered after the event
	// that issued this launch. A mid-batch abort still counts as
	// observed demand — the load balancer processed the request before the
	// failure.
	if s.hasLaunched && now.Sub(s.lastLaunch) <= p.DemandWindow {
		s.hotStreak++
	} else if !s.hasLaunched || s.decayEvent.Pending() {
		s.demandDecay(now)
	}
	s.hasLaunched = true
	s.lastLaunch = now
	s.scheduleDemandDecay(now)

	// Reuse whatever is already running: active instances count as-is, idle
	// ones are reconnected warm. Warm reuses are tracked only on the abort
	// path, where they must be returned to idle.
	connected := make([]*Instance, 0, n)
	var rewarmed []*Instance
	for _, inst := range s.insts {
		if len(connected) == n {
			break
		}
		if inst == nil {
			continue
		}
		switch inst.state {
		case StateActive:
			connected = append(connected, inst)
		case StateIdle:
			inst.activate(now)
			if abort {
				rewarmed = append(rewarmed, inst)
			}
			connected = append(connected, inst)
		}
	}

	// Create the remainder through the placement policy.
	need := n - len(connected)
	var created []*Instance
	if need > 0 {
		created = s.placeNew(need, now)
		connected = append(connected, created...)
	}

	if abort {
		// Roll back: terminate everything this launch created (they accrued
		// no billable time and fire no SIGTERM — no callback is registered
		// yet) and return warm reuses to idle with their original reaper
		// timers intact. Billing shows no trace of the rolled-back
		// instances; the success-only counters below are never reached.
		for _, inst := range created {
			inst.terminate(now)
			s.account.bill.Instances--
		}
		for _, inst := range rewarmed {
			inst.goIdle(now)
		}
		dc.faultCounters.LaunchAborts++
		dc.faultCounters.InstancesRolledBack += len(created)
		return nil, fmt.Errorf("faas: %s/%s launch aborted mid-batch: %w",
			s.account.id, s.name, ErrLaunchFault)
	}
	s.account.bill.Launches++

	// Image-locality accounting for this launch: which hosts serve it, and
	// how many of them are running the service for the first time. An epoch
	// mark dedupes hosts within this launch without a per-launch map.
	mark := s.account.dc.platform.nextMark()
	for _, inst := range connected {
		h := inst.host
		if h.mark == mark {
			continue
		}
		h.mark = mark
		s.usedLaunchHosts++
		if !s.seenHosts.get(h.id) {
			s.seenHosts.set(h.id)
			s.coldLaunchHosts++
		}
	}
	return connected, nil
}

// demandDecay marks the service cold: the hot streak resets and the policy
// reacts (dynamic regions resample part of the account's base pool). Any
// pending decay timer is disarmed — decay happens exactly once per cold
// transition.
func (s *Service) demandDecay(now simtime.Time) {
	s.account.dc.platform.sched.Cancel(&s.decayEvent)
	s.hotStreak = 0
	s.account.dc.policy.OnDemandDecay(s, now)
	s.account.dc.trace(PlacementEvent{
		Account: s.account.id, Service: s.name, Kind: TraceDemandDecay,
	})
}

// scheduleDemandDecay arms the service's cold-transition timer: unless a
// further launch arrives within the demand window (cancelling and re-arming
// the timer), the service decays the instant the window closes. The +1ns
// keeps the boundary semantics of Launch's hot-streak check, where a launch
// exactly DemandWindow after the previous one still counts as hot.
func (s *Service) scheduleDemandDecay(now simtime.Time) {
	sched := s.account.dc.platform.sched
	sched.Cancel(&s.decayEvent)
	sched.ArmHandler(&s.decayEvent, now.Add(s.account.dc.profile.DemandWindow+1), s)
}

// HandleEvent dispatches the service's intrusive timers (the Service is the
// simtime.Handler for both its demand-decay and autoscale-tick events).
func (s *Service) HandleEvent(e *simtime.Event, now simtime.Time) {
	switch e {
	case &s.decayEvent:
		s.demandDecay(now)
	case &s.tickEvent:
		s.autoscaleTick(now)
	}
}

// placeNew creates count new instances through the region's placement
// policy, handing it the demand-window state and the service's placement
// stream, and traces the resulting batch.
func (s *Service) placeNew(count int, now simtime.Time) []*Instance {
	b := &PlacementBatch{svc: s, now: now, out: make([]*Instance, 0, count)}
	s.account.dc.policy.Place(PlacementRequest{
		Service:   s,
		Count:     count,
		Now:       now,
		HotStreak: s.hotStreak,
		RNG:       s.rng,
	}, b)
	if s.account.dc.tracer != nil {
		hosts := make(map[*Host]bool, len(b.out))
		for _, inst := range b.out {
			hosts[inst.host] = true
		}
		s.account.dc.trace(PlacementEvent{
			Account: s.account.id, Service: s.name, Kind: TracePlace,
			Count: len(b.out), Hosts: len(hosts), HotStreak: s.hotStreak,
		})
	}
	return b.out
}

// Container startup latencies (§2.3): Gen 1 Linux containers have "a small
// resource footprint and fast start-up time"; Gen 2 VMs have "a large
// resource footprint [and] longer start-up times". A host that has never run
// the service additionally pulls the container image.
const (
	gen1StartupMedian = 180 * time.Millisecond
	gen2StartupMedian = 1800 * time.Millisecond
	imagePullMedian   = 4 * time.Second
	startupSigma      = 0.35 // lognormal shape for all three
)

// startupLatency draws the cold-start duration of a new instance.
func (s *Service) startupLatency(h *Host) time.Duration {
	median := gen1StartupMedian
	if s.gen == sandbox.Gen2 {
		median = gen2StartupMedian
	}
	d := s.rng.LogNormal(logDur(median), startupSigma)
	if !s.seenHosts.get(h.id) {
		d += s.rng.LogNormal(logDur(imagePullMedian), startupSigma)
	}
	return time.Duration(d)
}

// logDur returns ln(d in nanoseconds) for lognormal medians.
func logDur(d time.Duration) float64 { return math.Log(float64(d)) }

// createInstance materializes a new active instance on the given host. The
// struct comes from the data center's slab, the guest is initialized in
// place, and the ID string is deferred to the first ID() call — steady-state
// creation performs no per-instance heap allocation of its own. Draw order
// is frozen: the startup-latency draw (service stream) precedes the guest's
// noise draws (host stream), as it always has.
func (s *Service) createInstance(h *Host, now simtime.Time) *Instance {
	dc := s.account.dc
	dc.nextInst++
	inst := dc.allocInstance()
	inst.service = s
	inst.host = h
	inst.state = StateActive
	inst.createdAt = now
	inst.readyAt = now.Add(s.startupLatency(h))
	inst.activeSince = now
	inst.seq = uint32(dc.nextInst)
	inst.lifeBase = randx.MixStep(dc.lifeMix1, uint64(inst.seq))
	sandbox.InitGuest(&inst.guestStore, h, s.gen)
	inst.guest = &inst.guestStore
	h.attach(inst)
	inst.slot = len(s.insts)
	s.insts = append(s.insts, inst)
	s.activeCount++
	s.wake()
	s.account.bill.Instances++
	dc.liveInstances++
	dc.scheduleLifecycle(inst, now)
	return inst
}

// Disconnect closes all connections, idling every active instance. Idle
// instances are preserved through the grace period and then terminated
// gradually (Fig. 6), unless a later Launch reuses them warm.
func (s *Service) Disconnect() {
	now := s.account.dc.platform.sched.Now()
	sched := s.account.dc.platform.sched
	p := s.account.dc.profile
	for _, inst := range s.insts {
		if inst == nil || inst.state != StateActive {
			continue
		}
		inst.goIdle(now)
		// Uniform spread over (grace, grace+span]: matches the near-linear
		// decay the paper measured. The reaper is the instance's intrusive
		// termEvent — cancel-and-arm, no closure, no allocation; the handler
		// re-checks idleness and dueness, so a warm reactivation before
		// termAt safely leaves the event pending.
		delay := p.IdleGrace + time.Duration(s.rng.Range(0, float64(p.IdleTerminationSpan)))
		at := now.Add(delay)
		inst.termAt = at
		sched.Cancel(&inst.termEvent)
		sched.ArmHandler(&inst.termEvent, at, inst)
	}
}

// TerminateAll immediately terminates every live instance of the service.
func (s *Service) TerminateAll() {
	now := s.account.dc.platform.sched.Now()
	for _, inst := range s.Instances() {
		inst.terminate(now)
	}
}

// recycle terminates one connected instance and immediately creates a
// replacement wherever the policy directs, keeping the connection count;
// models the platform occasionally migrating long-running instances.
func (s *Service) recycle(inst *Instance, now simtime.Time) {
	inst.terminate(now)
	h := s.account.dc.policy.Recycle(s, inst.ID(), now)
	s.createInstance(h, now)
	s.account.dc.trace(PlacementEvent{
		Account: s.account.id, Service: s.name, Kind: TraceRecycle,
		Count: 1, Hosts: 1, HotStreak: s.hotStreak,
	})
}

// removeInstance drops a terminated instance from the service's list:
// tombstone the slot, compact (order-preserving) once tombstones reach half
// the list.
func (s *Service) removeInstance(inst *Instance) {
	if inst.slot >= len(s.insts) || s.insts[inst.slot] != inst {
		return
	}
	s.insts[inst.slot] = nil
	s.deadInsts++
	if s.deadInsts*2 <= len(s.insts) {
		return
	}
	live := s.insts[:0]
	for _, cur := range s.insts {
		if cur != nil {
			cur.slot = len(live)
			live = append(live, cur)
		}
	}
	// Clear the vacated tail so the backing array drops its references.
	tail := s.insts[len(live):]
	for i := range tail {
		tail[i] = nil
	}
	s.insts = live
	s.deadInsts = 0
}
