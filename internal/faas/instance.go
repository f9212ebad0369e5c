package faas

import (
	"fmt"
	"time"

	"eaao/internal/sandbox"
	"eaao/internal/simtime"
)

// InstanceState is the lifecycle state of a container instance.
type InstanceState int

const (
	// StateActive means the instance is serving a connection and billing.
	StateActive InstanceState = iota
	// StateIdle means the instance has no connection; it is preserved for a
	// while (and may be reused warm) before the orchestrator terminates it.
	StateIdle
	// StateTerminated means the instance received SIGTERM and is gone.
	StateTerminated
)

// String returns "active", "idle", or "terminated".
func (s InstanceState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateIdle:
		return "idle"
	case StateTerminated:
		return "terminated"
	default:
		return "unknown"
	}
}

// Instance is one container instance of a service.
//
// Instances live in per-data-center slab chunks (DataCenter.allocInstance):
// creation is the simulator's hottest path, so the struct is laid out to be
// born with zero per-instance heap allocations — the sandbox guest is
// embedded by value (guestStore), the instance ID string materializes only
// when someone asks for it, and both timers the instance ever needs are
// intrusive simtime events dispatched through the Instance's own
// simtime.Handler implementation.
type Instance struct {
	// id caches the formatted instance identity; empty until ID() first
	// builds it from (service, seq). Internal code must go through ID().
	id      string
	service *Service
	host    *Host
	guest   *sandbox.Guest
	state   InstanceState
	// slot is this instance's index in service.insts, maintained on append
	// and compaction so removal never scans or shifts the list. hostSlot is
	// the same idea for host.instances (swap-removal there).
	slot     int
	hostSlot int
	// seq is the instance's creation ordinal within its data center (also
	// the numeric tail of its ID); together with lifeDraws it addresses the
	// instance's stateless lifecycle-event stream (kernel.go) without
	// per-instance generator state. lifeBase pre-mixes the first two words
	// of that stream's hash — randx.MixStep(dc.lifeMix1, seq) — so each
	// lifecycle draw costs one mixer round instead of three. lifeEvent is
	// the intrusive churn/preemption timer, leased from the data center's
	// event pool on first arm and returned at termination.
	seq       uint32
	lifeDraws uint32
	lifeBase  uint64
	lifeEvent *simtime.Event

	// guestStore is the storage ID()'s guest points at; it rides in the
	// instance slab instead of being a separate allocation per creation.
	guestStore sandbox.Guest

	// termEvent is the intrusive idle-reaper timer: Disconnect and scale-in
	// cancel-and-arm it at termAt. A warm reactivation deliberately leaves a
	// pending reaper armed — the handler checks the instance is still idle
	// and still due, so a stale firing is a no-op, and the launch-abort
	// rollback path relies on the original timer surviving the
	// activate/goIdle round trip untouched.
	termEvent simtime.Event

	createdAt simtime.Time
	// readyAt is when the container finished starting and can serve its
	// first request: creation plus sandbox startup (fast for Gen 1 Linux
	// containers, slower for Gen 2 VMs, §2.3) plus an image pull when the
	// host had never run the service.
	readyAt   simtime.Time
	idleSince simtime.Time
	// termAt is the scheduled termination instant while idle; the idle
	// reaper checks that the instance is still idle and still due.
	termAt simtime.Time
	// activeSince tracks the start of the current billing span.
	activeSince simtime.Time

	// sigterm, if set, is invoked when the orchestrator terminates the
	// instance (the paper's Fig. 6 setup traps SIGTERM and reports the
	// time to an external collector).
	sigterm func(*Instance, simtime.Time)

	// pressuring marks the instance as currently loading the host RNG
	// during a covert-channel round.
	pressuring bool

	// workload, when set, reports whether the instance's program is
	// actively executing (pressuring shared resources) at a given instant;
	// used by the extraction demonstrator.
	workload func(simtime.Time) bool
}

// ID returns the platform-assigned instance identity (visible to the tenant,
// like a Cloud Run instance ID; it reveals nothing about the host). The
// string is formatted on first use: most instances in a fleet-scale world
// are never asked for their ID, and skipping the eager build keeps creation
// allocation-free.
func (i *Instance) ID() string {
	if i.id == "" {
		i.id = formatInstanceID(i.service, i.seq)
	}
	return i.id
}

// Service returns the service this instance belongs to.
func (i *Instance) Service() *Service { return i.service }

// State returns the lifecycle state.
func (i *Instance) State() InstanceState { return i.state }

// ReadyAt returns when the instance finished its cold start and could serve
// its first request.
func (i *Instance) ReadyAt() simtime.Time { return i.readyAt }

// StartupLatency returns the instance's cold-start duration.
func (i *Instance) StartupLatency() time.Duration { return i.readyAt.Sub(i.createdAt) }

// Guest returns the sandboxed execution environment inside the instance.
// Attack code runs against this handle only. It returns an error if the
// instance has been terminated.
func (i *Instance) Guest() (*sandbox.Guest, error) {
	if i.state == StateTerminated {
		return nil, fmt.Errorf("faas: instance %s is terminated", i.ID())
	}
	return i.guest, nil
}

// MustGuest is Guest for call sites that have just launched the instance and
// hold the platform single-threaded; it panics on a terminated instance.
func (i *Instance) MustGuest() *sandbox.Guest {
	g, err := i.Guest()
	if err != nil {
		panic(err)
	}
	return g
}

// OnSIGTERM registers a callback invoked with the termination time when the
// orchestrator kills the instance. Registering replaces any prior callback.
func (i *Instance) OnSIGTERM(fn func(*Instance, simtime.Time)) { i.sigterm = fn }

// SetWorkload installs the victim-side activity model of an instance: fn
// reports whether the program is executing (and therefore pressuring the
// shared hardware resource) at a given instant. A nil fn clears it. This is
// the secret-dependent execution the threat model's extraction step spies
// on: the attacker never calls this — it can only observe contention.
func (i *Instance) SetWorkload(fn func(simtime.Time) bool) { i.workload = fn }

// HostID exposes the ground-truth host for experiment scoring. Real attackers
// have no such API; experiment code uses it only to validate fingerprints, in
// the role the covert-channel ground truth plays in the paper.
func (i *Instance) HostID() (HostID, bool) {
	if i.host == nil {
		return 0, false
	}
	return i.host.id, true
}

// terminate transitions the instance to StateTerminated, detaches it from
// its host, accrues final billing, and fires the SIGTERM callback.
func (i *Instance) terminate(now simtime.Time) {
	if i.state == StateTerminated {
		return
	}
	if i.state == StateActive {
		i.service.account.accrue(i, i.activeSince, now)
		i.service.activeCount--
		i.service.wake()
	}
	i.service.account.dc.cancelLifecycle(i)
	i.service.account.dc.platform.sched.Cancel(&i.termEvent)
	i.service.account.dc.liveInstances--
	wasIdle := i.state == StateIdle
	i.state = StateTerminated
	i.host.detach(i)
	i.service.removeInstance(i)
	if wasIdle {
		// The platform reclaimed an idle instance (the reaper, or a bulk
		// teardown): let the policy update any external load bookkeeping.
		dc := i.service.account.dc
		dc.policy.OnIdleTermination(i, now)
		dc.trace(PlacementEvent{
			Account: i.service.account.id, Service: i.service.name,
			Kind: TraceIdleTerm, Count: 1,
		})
	}
	if i.sigterm != nil {
		i.sigterm(i, now)
	}
}

// goIdle transitions an active instance to idle and accrues billing for the
// active span.
func (i *Instance) goIdle(now simtime.Time) {
	if i.state != StateActive {
		return
	}
	i.service.account.accrue(i, i.activeSince, now)
	i.service.activeCount--
	i.service.wake()
	i.state = StateIdle
	i.idleSince = now
}

// activate transitions an idle instance back to active (warm reuse).
func (i *Instance) activate(now simtime.Time) {
	if i.state != StateIdle {
		return
	}
	i.state = StateActive
	i.service.activeCount++
	i.service.wake()
	i.activeSince = now
	i.service.account.dc.resumeLifecycle(i, now)
}
