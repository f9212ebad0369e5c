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
// cancelled event is removed from the queue immediately (O(log n)), so
// abandoned timers do not leak dead entries into every subsequent heap
// operation.
//
// The zero Event is ready to arm. An Event must not be armed again while it
// is still pending (Cancel it first); it may be re-armed freely from inside
// its own callback or after it fired.
type Event struct {
	at  Time
	seq uint64 // insertion order (a tick's: see ArmTick); breaks ties deterministically
	h   Handler
	pos int // heap index + 1; 0 = not queued (so the zero Event is idle)
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

// Deadline returns the instant the event was last armed for.
func (e *Event) Deadline() Time { return e.at }

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

// Scheduler is a deterministic discrete-event scheduler. Events scheduled for
// the same instant fire in the order they were scheduled, and periodic ticks
// (ArmTick) after all of them. Scheduler is not safe for concurrent use; the
// simulator is single-threaded by design so runs are reproducible.
type Scheduler struct {
	now      Time
	nextID   uint64
	queue    eventHeap
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
	s.nextID++
	s.arm(e, at, s.nextID, h)
}

// ArmHandlerAfter is ArmHandler with a relative deadline.
func (s *Scheduler) ArmHandlerAfter(e *Event, d time.Duration, h Handler) {
	if d < 0 {
		panic("simtime: negative delay")
	}
	s.ArmHandler(e, s.now.Add(d), h)
}

// tickBit is the tie-break bit of ArmTick events: with it set, a tick's seq
// exceeds every ArmHandler seq.
const tickBit = 1 << 63

// ArmTick is ArmHandler for one link of a periodic chain of ticks, such as
// an autoscaler's evaluation. A tick fires after every ArmHandler event due
// at its instant, and same-instant ticks fire in the order their chains
// began: the first ArmTick of an Event fixes its seq at tickBit | the next
// insertion seq, and later arms of that Event — after it fired or was
// cancelled — keep it, so a chain that skips instants keeps its place.
// Zeroing the Event gives the place up; its next ArmTick starts a new chain.
func (s *Scheduler) ArmTick(e *Event, at Time, h Handler) {
	seq := e.seq
	if seq&tickBit == 0 {
		s.nextID++
		seq = tickBit | s.nextID
	}
	s.arm(e, at, seq, h)
}

// arm gives e its deadline, tie-break seq and handler, then queues it: the
// push sifts by (at, seq), so both are set first.
func (s *Scheduler) arm(e *Event, at Time, seq uint64, h Handler) {
	if e.pos != 0 {
		panic("simtime: arming an event that is still pending")
	}
	if at < s.now {
		panic(fmt.Sprintf("simtime: scheduling event at %v before now %v", at, s.now))
	}
	e.at, e.seq, e.h = at, seq, h
	s.queue.push(e)
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
	s.queue.remove(e.pos - 1)
	e.h = nil
	return true
}

// Pending reports the number of queued events.
func (s *Scheduler) Pending() int { return len(s.queue) }

// Executed reports the total number of events run since construction. It is
// the denominator of the event kernel's throughput metrics (events/sec,
// allocs/event) and is monotonic. Cancelled events never run and are not
// counted.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Step runs the next event, advancing the clock to its deadline. It reports
// whether an event was run.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue.popMin()
	s.now = e.at
	s.executed++
	// Detach the handler before running it: the callback may re-arm e (the
	// self-rescheduling pattern), and a fired event must not pin its owner.
	h := e.h
	e.h = nil
	h.HandleEvent(e, s.now)
	return true
}

// Clone returns a copy of the scheduler for world snapshotting: the clock,
// insertion counter and executed count carry over, and the queue has one
// empty slot per pending event of the original. Pending events are
// caller-owned objects the scheduler cannot duplicate itself: each owner
// value-copies its events into the cloned world and puts the pending ones
// back with Reseat, and Seated then reports a slot nobody filled.
func (s *Scheduler) Clone() *Scheduler {
	return &Scheduler{now: s.now, nextID: s.nextID, executed: s.executed, queue: make(eventHeap, len(s.queue))}
}

// Reseat queues e, a value copy of an event pending in the scheduler this
// one was cloned from, with handler h. The copy keeps the original's
// deadline, tie-break seq and heap position, so it lands in the original's
// slot and firing order is identical by construction. An idle e is left
// alone: a parked tick keeps its seq and with it its chain's place.
func (s *Scheduler) Reseat(e *Event, h Handler) {
	if e.pos != 0 {
		e.h = h
		s.queue[e.pos-1] = e
	}
}

// Seated checks the queue: every slot holds an event whose position is that
// slot, in heap order by (deadline, seq). On a clone it reports a pending
// event of the original that no owner reseated; on any scheduler it reports
// a corrupted heap.
func (s *Scheduler) Seated() error {
	for i, e := range s.queue {
		switch {
		case e == nil:
			return fmt.Errorf("simtime: queue slot %d is empty (a pending event was not reseated)", i)
		case e.pos != i+1:
			return fmt.Errorf("simtime: event in queue slot %d records position %d", i, e.pos-1)
		case i > 0 && s.queue.less(i, (i-1)/2):
			return fmt.Errorf("simtime: queue slot %d (deadline %v) sorts before its parent", i, e.at)
		}
	}
	return nil
}

// RunUntil executes every event with deadline <= t (including events those
// events schedule, as long as they also fall within t), then advances the
// clock to exactly t.
func (s *Scheduler) RunUntil(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("simtime: RunUntil(%v) before now %v", t, s.now))
	}
	for len(s.queue) > 0 && s.queue[0].at <= t {
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
