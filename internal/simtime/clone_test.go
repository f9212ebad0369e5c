package simtime

import (
	"fmt"
	"testing"
	"time"
)

// ---- pooled-event invariants ----------------------------------------------
//
// The faas lifecycle kernel leases Event slots from a slab pool and recycles
// them through terminate. Two properties of the scheduler make that safe, and
// these tests pin them:
//
//   - Cancel of an event that already fired (or was already cancelled) is a
//     strict no-op: it reports false and cannot disturb whatever the slot is
//     doing now. A stale canceller holding a recycled slot's address can
//     therefore only be dangerous if the slot was re-armed — which is why the
//     kernel nil's the owning pointer when a slot is freed.
//   - ArmHandler of a still-pending event panics. A pool that ever freed a
//     pending slot would blow up deterministically on the next lease instead
//     of corrupting the queue.

func TestCancelAfterFireIsNoOp(t *testing.T) {
	s := NewScheduler(0)
	owner := &countHandler{}
	var e Event
	s.ArmHandler(&e, 10, owner)
	if !s.Step() {
		t.Fatal("no event ran")
	}
	if owner.fired != 1 {
		t.Fatalf("fired %d times, want 1", owner.fired)
	}
	if s.Cancel(&e) {
		t.Fatal("Cancel of a fired event reported true")
	}
	// The fired slot must be immediately re-armable (pool reuse), and the
	// stale-cancel result must not have perturbed the scheduler.
	s.ArmHandler(&e, 20, owner)
	if got := s.Pending(); got != 1 {
		t.Fatalf("pending = %d after re-arm, want 1", got)
	}
	if !s.Step() || owner.fired != 2 {
		t.Fatalf("re-armed slot did not fire (fired=%d)", owner.fired)
	}
}

func TestCancelledSlotReArms(t *testing.T) {
	s := NewScheduler(0)
	owner := &countHandler{}
	var e Event
	s.ArmHandler(&e, 10, owner)
	if !s.Cancel(&e) {
		t.Fatal("Cancel of a pending event reported false")
	}
	if e.Pending() {
		t.Fatal("cancelled event still pending")
	}
	s.ArmHandler(&e, 5, owner)
	drain(s)
	if owner.fired != 1 {
		t.Fatalf("fired %d, want 1 (the re-arm only)", owner.fired)
	}
	if s.Executed() != 1 {
		t.Fatalf("executed %d, want 1 — cancelled events must not count", s.Executed())
	}
}

func TestArmPendingPanics(t *testing.T) {
	s := NewScheduler(0)
	owner := &countHandler{}
	var e Event
	s.ArmHandler(&e, 10, owner)
	defer func() {
		if recover() == nil {
			t.Fatal("arming a pending event did not panic")
		}
	}()
	s.ArmHandler(&e, 20, owner)
}

// countHandler counts its firings.
type countHandler struct{ fired int }

func (c *countHandler) HandleEvent(*Event, Time) { c.fired++ }

// ---- allocation budgets ----------------------------------------------------

// TestArmCancelAllocFree pins the kernel's hot-path budgets: arming,
// cancelling, and firing intrusive handler events allocate nothing once the
// queue's backing array has grown.
func TestArmCancelAllocFree(t *testing.T) {
	s := NewScheduler(0)
	owner := &countHandler{}
	events := make([]Event, 64)
	// Warm the heap's backing array so growth is out of the measurement.
	for i := range events {
		s.ArmHandler(&events[i], Time(i+1), owner)
	}
	for i := range events {
		s.Cancel(&events[i])
	}

	if n := testing.AllocsPerRun(100, func() {
		for i := range events {
			s.ArmHandler(&events[i], s.Now().Add(time.Duration(i+1)), owner)
		}
		for i := range events {
			s.Cancel(&events[i])
		}
	}); n != 0 {
		t.Fatalf("arm+cancel of %d events allocated %v times", len(events), n)
	}

	if n := testing.AllocsPerRun(100, func() {
		for i := range events {
			s.ArmHandler(&events[i], s.Now().Add(time.Duration(i+1)), owner)
		}
		for s.Step() {
		}
	}); n != 0 {
		t.Fatalf("arm+fire of %d events allocated %v times", len(events), n)
	}
}

// ---- Clone -----------------------------------------------------------------

// replayHandler logs its firings and re-arms itself a fixed number of times —
// a miniature of the kernel's self-rescheduling timers.
type replayHandler struct {
	id    int
	left  int
	ev    Event
	sched *Scheduler
	log   *[]string
}

func (r *replayHandler) HandleEvent(_ *Event, now Time) {
	*r.log = append(*r.log, fmt.Sprintf("%d@%d", r.id, now))
	if r.left > 0 {
		r.left--
		r.sched.ArmHandler(&r.ev, now.Add(time.Duration(r.id+1)*7), r)
	}
}

func buildReplayWorld(s *Scheduler, log *[]string, n int) []*replayHandler {
	hs := make([]*replayHandler, n)
	for i := range hs {
		hs[i] = &replayHandler{id: i, left: 3 + i%3, sched: s, log: log}
		s.ArmHandler(&hs[i].ev, s.Now().Add(time.Duration(13*i+5)), hs[i])
	}
	return hs
}

// TestCloneReplaysIdentically forks a scheduler mid-run and checks the fork
// replays exactly the tail the original produces — and that running the fork
// leaves the original untouched.
func TestCloneReplaysIdentically(t *testing.T) {
	var origLog []string
	s := NewScheduler(100)
	buildReplayWorld(s, &origLog, 8)
	for i := 0; i < 5; i++ { // advance partway so the queue is mid-flight
		s.Step()
	}

	var cloneLog []string
	cs, err := s.Clone(func(old *Event, h Handler) (*Event, Handler) {
		rh, ok := h.(*replayHandler)
		if !ok {
			t.Fatalf("unknown pending event at %v", old.at)
		}
		nh := &replayHandler{id: rh.id, left: rh.left, log: &cloneLog}
		return &nh.ev, nh
	})
	if err != nil {
		t.Fatal(err)
	}
	// The clone's handlers must re-arm into the clone's scheduler.
	for i := range cs.queue {
		cs.queue[i].h.(*replayHandler).sched = cs
	}
	if cs.Now() != s.Now() || cs.Executed() != s.Executed() || cs.Pending() != s.Pending() {
		t.Fatalf("clone counters diverge: now %v/%v executed %d/%d pending %d/%d",
			cs.Now(), s.Now(), cs.Executed(), s.Executed(), cs.Pending(), s.Pending())
	}

	drain(cs) // run the fork first: must not disturb the original
	origBefore := len(origLog)
	drain(s)
	tail := origLog[origBefore:]
	if len(tail) != len(cloneLog) {
		t.Fatalf("fork ran %d events, original tail %d", len(cloneLog), len(tail))
	}
	for i := range tail {
		if tail[i] != cloneLog[i] {
			t.Fatalf("event %d: original %q, fork %q", i, tail[i], cloneLog[i])
		}
	}
	if cs.Executed() != s.Executed() {
		t.Fatalf("executed diverged after drain: %d vs %d", cs.Executed(), s.Executed())
	}
	_ = origLog
}

func TestCloneRejectsBadRemap(t *testing.T) {
	s := NewScheduler(0)
	owner := &countHandler{}
	var e Event
	s.ArmHandler(&e, 10, owner)

	if _, err := s.Clone(func(*Event, Handler) (*Event, Handler) { return nil, nil }); err == nil {
		t.Fatal("Clone accepted a nil counterpart")
	}
	// Returning an already-pending event (here: the original itself) must be
	// rejected — it would alias the two schedulers' queues.
	if _, err := s.Clone(func(old *Event, _ Handler) (*Event, Handler) { return old, owner }); err == nil {
		t.Fatal("Clone accepted a pending counterpart")
	}
}

func TestCloneEmptyQueue(t *testing.T) {
	s := NewScheduler(42)
	var e Event
	s.ArmHandler(&e, 50, &countHandler{})
	drain(s)
	c, err := s.Clone(func(*Event, Handler) (*Event, Handler) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if c.Now() != s.Now() || c.Executed() != 1 || c.Pending() != 0 {
		t.Fatalf("empty-queue clone diverges: now %v executed %d pending %d", c.Now(), c.Executed(), c.Pending())
	}
	// Tie-break sequencing continues from the same counter.
	var a, b Event
	s.ArmHandler(&a, 60, &countHandler{})
	c.ArmHandler(&b, 60, &countHandler{})
	if a.seq != b.seq {
		t.Fatalf("seq diverged: %d vs %d", a.seq, b.seq)
	}
}
