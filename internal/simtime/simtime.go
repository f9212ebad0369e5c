// Package simtime provides the virtual clock and discrete-event scheduler
// that the FaaS platform simulator runs on. The paper's measurements span
// hours (idle termination), days (fingerprint drift), and a full week
// (expiration CDFs); virtual time lets the whole study run in milliseconds
// while preserving every time-dependent behaviour.
//
// Time is an absolute instant on the virtual timeline, expressed in
// nanoseconds since the simulation epoch. Durations use the standard
// time.Duration so call sites read naturally (simtime moves the clock, the
// stdlib describes spans).
package simtime

import (
	"fmt"
	"time"
)

// Time is an absolute virtual instant, in nanoseconds since Epoch.
type Time int64

// Epoch is the real-world anchor of virtual time zero. Its value only
// matters for human-readable rendering of fingerprints and logs.
var Epoch = time.Date(2023, time.June, 1, 0, 0, 0, 0, time.UTC)

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Before reports whether t is earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is later than u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns t as fractional seconds since Epoch.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Real converts t to a real-world time.Time anchored at Epoch.
func (t Time) Real() time.Time { return Epoch.Add(time.Duration(t)) }

// FromSeconds builds a Time from fractional seconds since Epoch.
func FromSeconds(s float64) Time { return Time(s * 1e9) }

// String renders t as the anchored wall-clock instant.
func (t Time) String() string { return t.Real().Format(time.RFC3339Nano) }

// Event is a scheduled callback, and the handle used to cancel it. It is
// caller-owned — typically embedded by value in the owning object — so a
// timer that is re-armed over and over (the lifecycle kernel's per-instance
// churn timers, the autoscaler's tick) costs zero allocations per arm. A
// cancelled heap event is removed from the queue immediately (O(log n)), so
// abandoned timers do not leak dead entries into every subsequent heap
// operation.
//
// The zero Event is ready to arm. An Event must not be armed again while it
// is still pending (Cancel it first); it may be re-armed freely from inside
// its own callback or after it fired.
type Event struct {
	at  Time
	seq uint64 // insertion order; breaks ties deterministically
	h   Handler
	pos int // heap index + 1; -1 in a lane; 0 = not queued (so the zero Event is idle)
}

// Handler receives intrusive-event callbacks without any closure: storing a
// pointer in an interface is allocation-free, where even a method value
// costs one allocation. The fired Event is passed back so an owner with
// several embedded events can tell them apart by address.
type Handler interface {
	HandleEvent(e *Event, now Time)
}

// Pending reports whether the event is currently queued.
func (e *Event) Pending() bool { return e.pos != 0 }

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq). It is not
// a container/heap.Interface on purpose: arming an event is the simulator's
// hottest operation (once per created instance, once per autoscale tick) and
// the stdlib's interface dispatch per sift comparison costs more than the
// sift itself. Concrete methods inline.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i + 1
	h[j].pos = j + 1
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			return
		}
		h.swap(i, least)
		i = least
	}
}

// push inserts e and records its position.
func (h *eventHeap) push(e *Event) {
	*h = append(*h, e)
	e.pos = len(*h)
	h.up(len(*h) - 1)
}

// popMin removes and returns the earliest event.
func (h *eventHeap) popMin() *Event {
	old := *h
	e := old[0]
	n := len(old) - 1
	old.swap(0, n)
	old[n] = nil
	e.pos = 0
	*h = old[:n]
	(*h).down(0)
	return e
}

// remove deletes the event at heap index i (pos-1).
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	e := old[i]
	if i != n {
		old.swap(i, n)
	}
	old[n] = nil
	e.pos = 0
	*h = old[:n]
	if i != n {
		(*h).down(i)
		(*h).up(i)
	}
}

// lane is the FIFO of events armed through ArmLane with one delay d. Each
// arm lands at now+d with a larger seq and the clock never runs back, so the
// slots are in (at, seq) order. Cancel leaves its slot stale (its seq no
// longer matches its event's) until it reaches the head. A full slice whose
// first half is spent is compacted, not grown, so ticks reuse one array.
type lane struct {
	d    time.Duration
	q    []laneSlot // slots from head on are queued, stale ones included
	head int
}

type laneSlot struct {
	e   *Event
	seq uint64
}

func (l *lane) push(e *Event) {
	if len(l.q) == cap(l.q) && 2*l.head >= len(l.q) {
		l.q, l.head = l.q[:copy(l.q, l.q[l.head:])], 0
	}
	l.q = append(l.q, laneSlot{e, e.seq})
}

// first returns the lane's earliest pending event, dropping stale slots on
// the way, or nil when it holds none.
func (l *lane) first() *Event {
	for ; l.head < len(l.q); l.head++ {
		if sl := l.q[l.head]; sl.e.seq == sl.seq {
			return sl.e
		}
		l.q[l.head] = laneSlot{}
	}
	return nil
}

// Scheduler is a deterministic discrete-event scheduler. Events scheduled for
// the same instant fire in the order they were scheduled. Scheduler is not
// safe for concurrent use; the simulator is single-threaded by design so runs
// are reproducible.
type Scheduler struct {
	now      Time
	nextID   uint64
	queue    eventHeap
	lanes    []lane
	laneLive int // pending events across all lanes
	executed uint64
}

// NewScheduler returns a scheduler positioned at the given start time.
func NewScheduler(start Time) *Scheduler {
	return &Scheduler{now: start}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// ArmHandler inserts a caller-owned event with an interface callback — fully
// allocation-free per arm (see Handler). Arming an event that is still
// pending panics: a caller juggling overlapping deadlines for one event has a
// state bug, and silently dropping either deadline would destroy determinism.
// Cancel it first to re-target. Arming in the past panics too.
func (s *Scheduler) ArmHandler(e *Event, at Time, h Handler) {
	s.arm(e, at, nil)
	e.h = h
}

// ArmHandlerAfter is ArmHandler with a relative deadline.
func (s *Scheduler) ArmHandlerAfter(e *Event, d time.Duration, h Handler) {
	if d < 0 {
		panic("simtime: negative delay")
	}
	s.ArmHandler(e, s.now.Add(d), h)
}

// ArmLane is ArmHandlerAfter for a timer always armed with the same delay d,
// such as a periodic tick. The event fires at the time and in the order
// ArmHandlerAfter would give it, but it waits in d's FIFO lane instead of
// the heap, so arming and firing it cost O(1): Step fires whichever of the
// heap top and the lane heads comes first by (at, seq).
func (s *Scheduler) ArmLane(e *Event, d time.Duration, h Handler) {
	if d < 0 {
		panic("simtime: negative delay")
	}
	i := 0
	for i < len(s.lanes) && s.lanes[i].d != d {
		i++
	}
	if i == len(s.lanes) {
		s.lanes = append(s.lanes, lane{d: d})
	}
	s.arm(e, s.now.Add(d), &s.lanes[i])
	e.h = h
}

// arm gives e its deadline and the next seq and queues it in lane l, or in
// the heap when l is nil.
func (s *Scheduler) arm(e *Event, at Time, l *lane) {
	if e.pos != 0 {
		panic("simtime: arming an event that is still pending")
	}
	if at < s.now {
		panic(fmt.Sprintf("simtime: scheduling event at %v before now %v", at, s.now))
	}
	s.nextID++
	e.at, e.seq = at, s.nextID
	if l == nil {
		s.queue.push(e)
		return
	}
	e.pos = -1
	l.push(e)
	s.laneLive++
}

// Cancel removes a pending event from the queue without running it. It
// reports whether the event was still pending; cancelling an event that has
// already fired (or was already cancelled) is a harmless no-op. Cancelled
// events never run and do not count toward Executed. Cancellation cannot
// affect the firing order of the remaining events — the queue is a total
// order by (time, insertion seq) — so it is determinism-safe.
func (s *Scheduler) Cancel(e *Event) bool {
	if e == nil || e.pos == 0 {
		return false
	}
	if e.pos > 0 {
		s.queue.remove(e.pos - 1)
	} else {
		// Zeroing seq marks the lane slot stale (armed seqs start at 1).
		e.pos, e.seq = 0, 0
		s.laneLive--
	}
	e.h = nil
	return true
}

// Pending reports the number of queued events.
func (s *Scheduler) Pending() int { return len(s.queue) + s.laneLive }

// Executed reports the total number of events run since construction. It is
// the denominator of the event kernel's throughput metrics (events/sec,
// allocs/event) and is monotonic. Cancelled events never run and are not
// counted.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Step runs the next event, advancing the clock to its deadline. It reports
// whether an event was run.
func (s *Scheduler) Step() bool {
	var e *Event
	switch {
	case s.laneLive > 0:
		e = s.popEarliest()
	case len(s.queue) > 0:
		e = s.queue.popMin()
	default:
		return false
	}
	s.now = e.at
	s.executed++
	// Detach the handler before running it: the callback may re-arm e (the
	// self-rescheduling pattern), and a fired event must not pin its owner.
	h := e.h
	e.h = nil
	h.HandleEvent(e, s.now)
	return true
}

// earliest returns the first of the heap top and the lane heads by (at, seq)
// and its lane (nil: the heap); it is used only while a lane event is pending.
func (s *Scheduler) earliest() (top *Event, in *lane) {
	if len(s.queue) > 0 {
		top = s.queue[0]
	}
	for i := range s.lanes {
		l := &s.lanes[i]
		if e := l.first(); e != nil && (top == nil || e.at < top.at || e.at == top.at && e.seq < top.seq) {
			top, in = e, l
		}
	}
	return top, in
}

// popEarliest pops the earliest event while a lane event is pending.
func (s *Scheduler) popEarliest() *Event {
	e, l := s.earliest()
	if l == nil {
		return s.queue.popMin()
	}
	l.q[l.head] = laneSlot{}
	l.head++
	e.pos = 0
	s.laneLive--
	return e
}

// Clone returns a deep copy of the scheduler for world snapshotting: the
// clock, insertion counter, executed count, and the entire pending queue
// carry over, so the copy replays the exact event sequence the original
// would. Pending events are caller-owned objects the scheduler cannot
// duplicate itself; remap is called once per pending event and must return
// the cloned world's counterpart Event (typically the same field embedded in
// the cloned owner) together with the handler it should fire into. The
// heap is copied slot for slot, then each lane's pending events in order, so
// each cloned event keeps the original's deadline, tie-break sequence, and
// heap or lane position — firing order is byte-identical by construction.
func (s *Scheduler) Clone(remap func(old *Event, h Handler) (*Event, Handler)) (*Scheduler, error) {
	c := &Scheduler{now: s.now, nextID: s.nextID, executed: s.executed, laneLive: s.laneLive,
		queue: make(eventHeap, len(s.queue)), lanes: make([]lane, len(s.lanes))}
	counterpart := func(e *Event) (*Event, error) {
		ne, h := remap(e, e.h)
		if ne == nil {
			return nil, fmt.Errorf("simtime: remap returned no counterpart for pending event (deadline %v)", e.at)
		}
		if ne.pos != 0 {
			return nil, fmt.Errorf("simtime: remap returned an event that is already pending (deadline %v)", e.at)
		}
		ne.at, ne.seq, ne.h, ne.pos = e.at, e.seq, h, e.pos
		return ne, nil
	}
	var err error
	for i, e := range s.queue {
		if c.queue[i], err = counterpart(e); err != nil {
			return nil, err
		}
	}
	for i, l := range s.lanes {
		c.lanes[i] = lane{d: l.d, q: make([]laneSlot, 0, len(l.q)-l.head)}
		for _, sl := range l.q[l.head:] {
			if sl.e.seq == sl.seq {
				ne, err := counterpart(sl.e)
				if err != nil {
					return nil, err
				}
				c.lanes[i].push(ne)
			}
		}
	}
	return c, nil
}

// RunUntil executes every event with deadline <= t (including events those
// events schedule, as long as they also fall within t), then advances the
// clock to exactly t.
func (s *Scheduler) RunUntil(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("simtime: RunUntil(%v) before now %v", t, s.now))
	}
	for {
		var e *Event
		if s.laneLive > 0 {
			e, _ = s.earliest()
		} else if len(s.queue) > 0 {
			e = s.queue[0]
		}
		if e == nil || e.at > t {
			break
		}
		s.Step()
	}
	s.now = t
}

// Advance moves the clock forward by d, running due events along the way.
func (s *Scheduler) Advance(d time.Duration) {
	if d < 0 {
		panic("simtime: negative advance")
	}
	s.RunUntil(s.now.Add(d))
}
