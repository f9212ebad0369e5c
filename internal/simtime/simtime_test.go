package simtime

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := FromSeconds(100)
	t1 := t0.Add(2500 * time.Millisecond)
	if got := t1.Seconds(); got != 102.5 {
		t.Errorf("Add: got %v s, want 102.5", got)
	}
	if d := t1.Sub(t0); d != 2500*time.Millisecond {
		t.Errorf("Sub: got %v", d)
	}
	if !t0.Before(t1) || !t1.After(t0) {
		t.Error("Before/After inconsistent")
	}
}

func TestRealAnchoredAtEpoch(t *testing.T) {
	if got := Time(0).Real(); !got.Equal(Epoch) {
		t.Errorf("Time(0).Real() = %v, want %v", got, Epoch)
	}
	if got := FromSeconds(3600).Real(); !got.Equal(Epoch.Add(time.Hour)) {
		t.Errorf("1h conversion wrong: %v", got)
	}
}

// fnHandler adapts a func to Handler for one-off test callbacks.
type fnHandler func(Time)

func (f fnHandler) HandleEvent(_ *Event, now Time) { f(now) }

// drain runs events until none is pending.
func drain(s *Scheduler) {
	for s.Step() {
	}
}

// schedule arms a one-off callback at t and returns its event.
func schedule(s *Scheduler, t Time, fn func(Time)) *Event {
	e := new(Event)
	s.ArmHandler(e, t, fnHandler(fn))
	return e
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(0)
	var order []int
	schedule(s, FromSeconds(3), func(Time) { order = append(order, 3) })
	schedule(s, FromSeconds(1), func(Time) { order = append(order, 1) })
	schedule(s, FromSeconds(2), func(Time) { order = append(order, 2) })
	drain(s)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
}

func TestSchedulerTieBreakInsertionOrder(t *testing.T) {
	s := NewScheduler(0)
	var order []int
	at := FromSeconds(5)
	for i := 0; i < 10; i++ {
		i := i
		schedule(s, at, func(Time) { order = append(order, i) })
	}
	drain(s)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events ran out of insertion order: %v", order)
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := NewScheduler(0)
	fired := false
	schedule(s, FromSeconds(10), func(Time) { fired = true })
	s.RunUntil(FromSeconds(5))
	if fired {
		t.Error("future event fired early")
	}
	if s.Now() != FromSeconds(5) {
		t.Errorf("clock = %v, want 5s", s.Now())
	}
	s.RunUntil(FromSeconds(10))
	if !fired {
		t.Error("due event did not fire")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler(0)
	var order []string
	schedule(s, FromSeconds(1), func(now Time) {
		order = append(order, "a")
		schedule(s, now.Add(time.Second), func(Time) { order = append(order, "b") })
		schedule(s, now.Add(10*time.Second), func(Time) { order = append(order, "late") })
	})
	s.RunUntil(FromSeconds(5))
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("cascaded events wrong: %v", order)
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1 (the late event)", s.Pending())
	}
}

func TestEventSeesItsDeadlineAsNow(t *testing.T) {
	s := NewScheduler(0)
	var at Time
	schedule(s, FromSeconds(7), func(now Time) { at = now })
	drain(s)
	if at != FromSeconds(7) {
		t.Errorf("event saw now=%v, want 7s", at)
	}
	if s.Now() != FromSeconds(7) {
		t.Errorf("clock after drain = %v, want 7s", s.Now())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := NewScheduler(FromSeconds(100))
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	schedule(s, FromSeconds(50), func(Time) {})
}

func TestRunUntilPastPanics(t *testing.T) {
	s := NewScheduler(FromSeconds(100))
	defer func() {
		if recover() == nil {
			t.Error("RunUntil in the past did not panic")
		}
	}()
	s.RunUntil(FromSeconds(50))
}

func TestAdvance(t *testing.T) {
	s := NewScheduler(0)
	count := 0
	for i := 1; i <= 5; i++ {
		schedule(s, FromSeconds(float64(i)), func(Time) { count++ })
	}
	s.Advance(3 * time.Second)
	if count != 3 {
		t.Errorf("after 3s advance, %d events ran, want 3", count)
	}
	s.Advance(10 * time.Second)
	if count != 5 {
		t.Errorf("after further advance, %d events ran, want 5", count)
	}
}

// Property: however events are inserted, they execute in nondecreasing time
// order.
func TestEventOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewScheduler(0)
		var fired []Time
		for _, off := range offsets {
			at := FromSeconds(float64(off))
			schedule(s, at, func(now Time) { fired = append(fired, now) })
		}
		drain(s)
		if len(fired) != len(offsets) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExecutedCountsEveryEvent(t *testing.T) {
	s := NewScheduler(0)
	for i := 0; i < 7; i++ {
		schedule(s, FromSeconds(float64(i)), func(Time) {})
	}
	if got := s.Executed(); got != 0 {
		t.Fatalf("Executed = %d before any Step", got)
	}
	for i := 0; i < 3; i++ {
		s.Step()
	}
	if got := s.Executed(); got != 3 {
		t.Fatalf("Executed = %d after 3 steps", got)
	}
	s.RunUntil(FromSeconds(100))
	if got := s.Executed(); got != 7 {
		t.Fatalf("Executed = %d after draining all, want 7", got)
	}
}

func TestCancelRemovesPendingEvent(t *testing.T) {
	s := NewScheduler(0)
	var fired []string
	schedule(s, FromSeconds(1), func(Time) { fired = append(fired, "a") })
	b := schedule(s, FromSeconds(2), func(Time) { fired = append(fired, "b") })
	schedule(s, FromSeconds(3), func(Time) { fired = append(fired, "c") })

	if !s.Cancel(b) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if s.Cancel(b) {
		t.Fatal("second Cancel of the same event returned true")
	}
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d after cancel, want 2", got)
	}
	s.RunUntil(FromSeconds(10))
	if got := fmt.Sprint(fired); got != "[a c]" {
		t.Fatalf("fired %v; cancelled event must not run, order must hold", fired)
	}
	if got := s.Executed(); got != 2 {
		t.Fatalf("Executed = %d, want 2 (cancelled events are not counted)", got)
	}
	// Cancelling an event that has already fired is a no-op.
	e := schedule(s, FromSeconds(11), func(Time) {})
	s.RunUntil(FromSeconds(12))
	if s.Cancel(e) {
		t.Fatal("Cancel of a fired event returned true")
	}
	if s.Cancel(nil) {
		t.Fatal("Cancel(nil) returned true")
	}
}

// rearm re-arms every event it fires a pseudo-random delay ahead (an LCG
// step), so the scheduler's pending depth stays constant under Step. The
// delay is uniform below span, or the LCG's top 24 bits in ns when span is 0.
type rearm struct {
	s    *Scheduler
	x    uint64
	span time.Duration
}

func (r *rearm) HandleEvent(e *Event, now Time) {
	r.x = r.x*6364136223846793005 + 1442695040888963407
	d := time.Duration(r.x >> 40)
	if r.span > 0 {
		d = time.Duration((r.x >> 11) % uint64(r.span))
	}
	r.s.ArmHandler(e, now.Add(d), r)
}

// ticker is a self-rescheduling autoscale-style tick: it re-arms every 15 s,
// through a lane or through the heap.
type ticker struct {
	s    *Scheduler
	lane bool
}

const tickEvery = 15 * time.Second

func (t *ticker) HandleEvent(e *Event, _ Time) {
	if t.lane {
		t.s.ArmLane(e, tickEvery, t)
	} else {
		t.s.ArmHandlerAfter(e, tickEvery, t)
	}
}

// BenchmarkScheduleStep prices one kernel event — pop the earliest deadline,
// fire it, re-arm it — at heap depths from a quick world's to a -big one's,
// and in a loaded world's mix: 2,000 pending, 1,800 of them 15 s ticks
// (about 90% of the events fired) beside 200 timers re-armed uniformly
// within 30 s, with the ticks armed through the heap or through a lane.
func BenchmarkScheduleStep(b *testing.B) {
	for _, lane := range []bool{false, true} {
		name := "ticks=heap"
		if lane {
			name = "ticks=lane"
		}
		b.Run(name+"/pending=2000", func(b *testing.B) {
			s := NewScheduler(0)
			r := &rearm{s: s, x: 1, span: 2 * tickEvery}
			t := &ticker{s: s, lane: lane}
			evs := make([]Event, 2000)
			for i := range evs[:200] {
				r.HandleEvent(&evs[i], 0)
			}
			for i := range evs[200:] {
				// Spread the first ticks over one period, as services
				// start autoscaling at scattered times.
				s.ArmHandler(&evs[200+i], Time(tickEvery)*Time(i)/1800, t)
			}
			s.RunUntil(Time(2 * tickEvery)) // every tick now re-arms itself
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
	for _, depth := range []int{1e3, 1e4, 1e5, 1e6} {
		b.Run(fmt.Sprintf("pending=%d", depth), func(b *testing.B) {
			s := NewScheduler(0)
			r := &rearm{s: s, x: 1}
			evs := make([]Event, depth)
			for i := range evs {
				r.HandleEvent(&evs[i], 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}
