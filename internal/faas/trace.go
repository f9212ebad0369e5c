package faas

import "eaao/internal/simtime"

// PlacementEventKind labels what kind of placement decision an event records.
type PlacementEventKind int

const (
	// TracePlace is a batch placement (one Launch's new instances).
	TracePlace PlacementEventKind = iota
	// TraceRecycle is a lifecycle-kernel churn event migrating one instance.
	TraceRecycle
	// TraceDemandDecay is a launch arriving outside the demand window.
	TraceDemandDecay
	// TraceIdleTerm is the reaper terminating an idle instance.
	TraceIdleTerm
)

// String names the event kind.
func (k PlacementEventKind) String() string {
	switch k {
	case TracePlace:
		return "place"
	case TraceRecycle:
		return "recycle"
	case TraceDemandDecay:
		return "demand-decay"
	case TraceIdleTerm:
		return "idle-term"
	default:
		return "event?"
	}
}

// PlacementEvent is one audited placement decision. Events carry aggregate
// counts only — no host identities — so a tracer can audit policy behavior
// without becoming a ground-truth side channel (attack code cannot reach the
// tracer either way: it only ever sees sandbox.Guest).
type PlacementEvent struct {
	// Seq is the region-wide event sequence number, starting at 1.
	Seq uint64
	// Time is the virtual time of the decision.
	Time simtime.Time
	// Region and Policy identify where and under which engine it happened.
	Region Region
	Policy string
	// Account and Service identify the tenant context.
	Account string
	Service string
	// Kind says what happened.
	Kind PlacementEventKind
	// Count is the number of instances involved (placed, recycled, or
	// terminated); zero for demand-decay events.
	Count int
	// Hosts is the number of distinct hosts the batch used (place only).
	Hosts int
	// HotStreak is the service's demand streak at decision time.
	HotStreak int
}

// PlacementTracer receives placement decisions as they happen. Tracing is
// off by default; install one with DataCenter.SetPlacementTracer. Tracers
// run on the simulator thread and must not call back into the platform.
type PlacementTracer interface {
	Record(PlacementEvent)
}

// TraceRing is a bounded PlacementTracer: it keeps the most recent capacity
// events and counts how many older ones were dropped, so tracing a
// long-running world has fixed memory cost.
type TraceRing struct {
	buf     []PlacementEvent
	next    int
	full    bool
	dropped uint64
}

// NewTraceRing returns a ring tracer holding at most capacity events;
// capacity must be positive.
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		panic("faas: TraceRing capacity must be positive")
	}
	return &TraceRing{buf: make([]PlacementEvent, 0, capacity)}
}

// Record appends an event, evicting the oldest when full.
func (r *TraceRing) Record(ev PlacementEvent) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.next] = ev
	r.next = (r.next + 1) % cap(r.buf)
	r.full = true
	r.dropped++
}

// Events returns the retained events, oldest first.
func (r *TraceRing) Events() []PlacementEvent {
	if !r.full {
		return append([]PlacementEvent(nil), r.buf...)
	}
	out := make([]PlacementEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len returns how many events are retained.
func (r *TraceRing) Len() int { return len(r.buf) }

// Dropped returns how many events were evicted to stay within capacity.
func (r *TraceRing) Dropped() uint64 { return r.dropped }

// SetPlacementTracer installs (or, with nil, removes) the region's placement
// tracer. The zero state is no tracer: recording costs nothing unless one is
// installed.
func (dc *DataCenter) SetPlacementTracer(t PlacementTracer) { dc.tracer = t }

// trace stamps and records one event if a tracer is installed.
func (dc *DataCenter) trace(ev PlacementEvent) {
	if dc.tracer == nil {
		return
	}
	dc.traceSeq++
	ev.Seq = dc.traceSeq
	ev.Time = dc.platform.sched.Now()
	ev.Region = dc.profile.Name
	ev.Policy = dc.policy.Name()
	dc.tracer.Record(ev)
}
