package simtime

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// ---- lanes against the heap ------------------------------------------------
//
// A lane arm must be indistinguishable from ArmHandlerAfter with the same
// delay. FuzzSchedulerLanes runs one random script twice, once with lane arms
// and once with each replaced by ArmHandlerAfter, and requires the same
// firings and counters throughout.

// laneDelays are the fixed delays a script's lane arms draw from; 0 puts a
// lane event at the current instant, beside any heap event already there.
var laneDelays = [4]time.Duration{0, 3, 15, 40}

// laneScript is the byte script both runs consume, with one shared cursor
// for top-level ops and for the ops callbacks perform, and the record the
// two runs are compared on.
type laneScript struct {
	data  []byte
	pos   int
	lanes bool // arm lane ops through ArmLane (else ArmHandlerAfter)
	log   []string
}

// next returns the next (op, arg) pair, or ok=false when the script is spent.
func (sc *laneScript) next() (op, arg byte, ok bool) {
	if sc.pos+1 >= len(sc.data) {
		return 0, 0, false
	}
	op, arg = sc.data[sc.pos], sc.data[sc.pos+1]
	sc.pos += 2
	return op, arg, true
}

// laneWorld is one scheduler with a fixed set of intrusive events.
type laneWorld struct {
	s   *Scheduler
	sc  *laneScript
	evs [8]laneEvent
}

type laneEvent struct {
	ev Event
	id int
	w  *laneWorld
}

func newLaneWorld(s *Scheduler, sc *laneScript) *laneWorld {
	w := &laneWorld{s: s, sc: sc}
	for i := range w.evs {
		w.evs[i].id, w.evs[i].w = i, w
	}
	return w
}

// HandleEvent logs the firing and performs the script's next op from inside
// the callback: an arm or cancel, aimed at the fired event itself when bit 3
// of the op is clear, so self re-arming is common.
func (le *laneEvent) HandleEvent(e *Event, now Time) {
	if e != &le.ev {
		panic("fired event is not the handler's own")
	}
	w := le.w
	w.sc.log = append(w.sc.log, fmt.Sprintf("fire %d@%d", le.id, now))
	op, arg, ok := w.sc.next()
	if !ok || op&7 > 4 { // no Step, RunUntil or Clone from a callback
		return
	}
	k := le.id
	if op&8 != 0 {
		k = int(op>>4) % len(w.evs)
	}
	w.apply(op&7, k, arg)
}

// apply performs one arm (kinds 0–3) or cancel (kind 4) on event k.
func (w *laneWorld) apply(kind byte, k int, arg byte) {
	le := &w.evs[k]
	delay := time.Duration(arg % 50)
	switch kind {
	case 4:
		w.s.Cancel(&le.ev)
		return
	}
	if le.ev.Pending() {
		return
	}
	switch kind {
	case 0:
		w.s.ArmHandler(&le.ev, w.s.Now().Add(delay), le)
	case 1:
		w.s.ArmHandlerAfter(&le.ev, delay, le)
	default:
		d := laneDelays[arg%4]
		if w.sc.lanes {
			w.s.ArmLane(&le.ev, d, le)
		} else {
			w.s.ArmHandlerAfter(&le.ev, d, le)
		}
	}
}

// clone forks the world through Scheduler.Clone; the script continues on the
// fork.
func (w *laneWorld) clone() (*laneWorld, error) {
	nw := newLaneWorld(nil, w.sc)
	s, err := w.s.Clone(func(old *Event, h Handler) (*Event, Handler) {
		le := h.(*laneEvent)
		if old != &le.ev {
			return nil, nil
		}
		return &nw.evs[le.id].ev, &nw.evs[le.id]
	})
	nw.s = s
	return nw, err
}

// runLaneScript plays data on a fresh scheduler and returns its record: every
// firing and, after every top-level op, the clock and both counters.
func runLaneScript(data []byte, lanes bool) ([]string, error) {
	sc := &laneScript{data: data, lanes: lanes}
	w := newLaneWorld(NewScheduler(100), sc)
	for {
		op, arg, ok := sc.next()
		if !ok {
			break
		}
		switch op & 7 {
		case 5:
			w.s.Step()
		case 6:
			w.s.RunUntil(w.s.Now().Add(time.Duration(arg % 50)))
		case 7:
			nw, err := w.clone()
			if err != nil {
				return nil, err
			}
			w = nw
		default:
			w.apply(op&7, int(op>>3)%len(w.evs), arg)
		}
		sc.log = append(sc.log, fmt.Sprintf("op %d: now %d executed %d pending %d", op&7, w.s.Now(), w.s.Executed(), w.s.Pending()))
	}
	// The script is spent, so callbacks no longer re-arm and this ends.
	for w.s.Step() {
		sc.log = append(sc.log, fmt.Sprintf("drain: now %d executed %d pending %d", w.s.Now(), w.s.Executed(), w.s.Pending()))
	}
	return sc.log, nil
}

func checkLaneScript(t *testing.T, data []byte) {
	want, err := runLaneScript(data, false)
	if err != nil {
		t.Fatalf("heap run: %v", err)
	}
	got, err := runLaneScript(data, true)
	if err != nil {
		t.Fatalf("lane run: %v", err)
	}
	for i := 0; i < len(want) || i < len(got); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("record line %d: lanes %q, heap %q", i, g, w)
		}
	}
}

func FuzzSchedulerLanes(f *testing.F) {
	f.Add([]byte{})
	// Self-rescheduling ticks on two lanes beside heap timers, a cancel of a
	// lane event, a clone, and a drain.
	f.Add([]byte{2, 2, 10, 3, 17, 40, 2, 1, 5, 0, 5, 0, 36, 0, 6, 30, 7, 0, 5, 0, 2, 2, 6, 49})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		script := make([]byte, 64+32*i)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(checkLaneScript)
}

// TestLaneCancelAndReArm pins the stale-slot rule directly: a lane event
// cancelled and re-armed (into its lane or the heap) fires once, at its new
// deadline, and the slot it left behind is skipped.
func TestLaneCancelAndReArm(t *testing.T) {
	s := NewScheduler(0)
	owner := &countHandler{}
	var a, b Event
	s.ArmLane(&a, 10, owner)
	s.ArmLane(&b, 10, owner)
	if !s.Cancel(&a) || s.Pending() != 1 {
		t.Fatalf("cancel of a lane event: pending %d, want 1", s.Pending())
	}
	s.ArmLane(&a, 10, owner) // behind b in the lane now
	s.Cancel(&b)
	s.ArmHandler(&b, 5, owner)
	s.Step()
	if s.Now() != 5 || b.Pending() || !a.Pending() {
		t.Fatalf("first firing at %v; want b at 5 with a still pending", s.Now())
	}
	drain(s)
	if s.Now() != 10 || owner.fired != 2 || s.Executed() != 2 || s.Pending() != 0 {
		t.Fatalf("now %v fired %d executed %d pending %d; want 10, 2, 2, 0", s.Now(), owner.fired, s.Executed(), s.Pending())
	}
}
