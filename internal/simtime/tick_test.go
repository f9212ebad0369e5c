package simtime

import (
	"fmt"
	"math/rand"
	"testing"
)

// ---- tick order --------------------------------------------------------------

// logHandler appends its name to a shared log when it fires.
type logHandler struct {
	name string
	log  *[]string
}

func (l *logHandler) HandleEvent(_ *Event, now Time) {
	*l.log = append(*l.log, fmt.Sprintf("%s@%d", l.name, now))
}

// TestTickFiresAfterSameInstantEvents: a tick armed before any ArmHandler
// event due at its instant still fires after all of them, including one
// armed at that instant by a callback firing there.
func TestTickFiresAfterSameInstantEvents(t *testing.T) {
	s := NewScheduler(0)
	var log []string
	var tick, a, b, c Event
	s.ArmTick(&tick, 10, &logHandler{"tick", &log})
	s.ArmHandler(&a, 10, fnHandler(func(now Time) {
		log = append(log, fmt.Sprintf("a@%d", now))
		s.ArmHandler(&c, now, &logHandler{"c", &log})
	}))
	s.ArmHandler(&b, 10, &logHandler{"b", &log})
	drain(s)
	if got := fmt.Sprint(log); got != "[a@10 b@10 c@10 tick@10]" {
		t.Fatalf("fired %s; want the ArmHandler events, then the tick", got)
	}
}

// TestTickKeepsChainOrder: same-instant ticks fire in the order their chains
// began, whatever order they are re-armed in — after firing, after a Cancel,
// and after instants the chain skipped.
func TestTickKeepsChainOrder(t *testing.T) {
	s := NewScheduler(0)
	var log []string
	var older, younger Event
	oh, yh := &logHandler{"older", &log}, &logHandler{"younger", &log}
	s.ArmTick(&older, 15, oh)
	s.ArmTick(&younger, 15, yh)
	s.RunUntil(15)
	// Re-arm after firing, the younger chain first.
	s.ArmTick(&younger, 30, yh)
	s.ArmTick(&older, 30, oh)
	s.RunUntil(30)
	// The older chain skips 45 and is cancelled once before it re-arms.
	s.ArmTick(&older, 45, oh)
	s.Cancel(&older)
	s.ArmTick(&younger, 60, yh)
	s.ArmTick(&older, 60, oh)
	drain(s)
	want := "[older@15 younger@15 older@30 younger@30 older@60 younger@60]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
	if s.Executed() != 6 || s.Pending() != 0 {
		t.Fatalf("executed %d pending %d; want 6, 0", s.Executed(), s.Pending())
	}
}

// TestZeroedTickTakesNewPlace: zeroing an Event gives up its chain's place
// (and so does arming it through ArmHandler); its next ArmTick starts a new
// chain behind every chain already begun.
func TestZeroedTickTakesNewPlace(t *testing.T) {
	for _, reset := range []string{"zero", "ArmHandler"} {
		t.Run(reset, func(t *testing.T) {
			s := NewScheduler(0)
			var log []string
			var older, younger Event
			oh, yh := &logHandler{"older", &log}, &logHandler{"younger", &log}
			s.ArmTick(&older, 15, oh)
			s.ArmTick(&younger, 15, yh)
			s.RunUntil(15)
			if reset == "zero" {
				older = Event{}
			} else {
				s.ArmHandler(&older, 20, oh)
				s.RunUntil(20)
			}
			s.ArmTick(&older, 30, oh)
			s.ArmTick(&younger, 30, yh)
			drain(s)
			if got := fmt.Sprint(log[len(log)-2:]); got != "[younger@30 older@30]" {
				t.Fatalf("fired %v; the restarted chain must follow the younger one", log)
			}
		})
	}
}

// ---- ticks against a reference queue -----------------------------------------
//
// FuzzSchedulerTicks plays a random script of ArmHandler and ArmTick arms,
// cancels, zeroings, steps, runs and clones, and checks every firing against
// tickModel, a linear-scan model of the documented order: by deadline, then
// ArmHandler events before ticks, ArmHandler events in arm order and ticks in
// the order their chains began.

// tickModel mirrors one scheduled Event.
type tickModel struct {
	at      Time
	pending bool
	tick    bool
	seq     uint64 // arm order; a tick's is its chain's first arm, 0 when it has none
}

// tickWorld is one scheduler with a fixed set of intrusive events, their
// models and the script both consume.
type tickWorld struct {
	t     *testing.T
	s     *Scheduler
	data  []byte
	pos   int
	armed uint64 // the model's insertion counter
	model [8]tickModel
	evs   [8]tickEvent
}

type tickEvent struct {
	ev Event
	id int
	w  *tickWorld
}

// next returns the next (op, arg) pair, or ok=false when the script is spent.
func (w *tickWorld) next() (op, arg byte, ok bool) {
	if w.pos+1 >= len(w.data) {
		return 0, 0, false
	}
	op, arg = w.data[w.pos], w.data[w.pos+1]
	w.pos += 2
	return op, arg, true
}

// due returns the model's earliest pending event, or -1.
func (w *tickWorld) due() int {
	k := -1
	for i, m := range w.model {
		if !m.pending {
			continue
		}
		if k < 0 {
			k = i
			continue
		}
		b := w.model[k]
		if m.at != b.at {
			if m.at < b.at {
				k = i
			}
		} else if m.tick != b.tick {
			if !m.tick {
				k = i
			}
		} else if m.seq < b.seq {
			k = i
		}
	}
	return k
}

// HandleEvent checks the firing against the model, then performs the
// script's next op from inside the callback: an arm, cancel or zeroing,
// aimed at the fired event itself when bit 3 of the op is clear, so self
// re-arming is common.
func (te *tickEvent) HandleEvent(e *Event, now Time) {
	w := te.w
	if k := w.due(); e != &te.ev || k != te.id || now != w.model[k].at {
		w.t.Fatalf("event %d fired at %d; the model expects event %d", te.id, now, k)
	}
	w.model[te.id].pending = false
	op, arg, ok := w.next()
	if !ok || op&7 > 5 { // no Step, RunUntil or Clone from a callback
		return
	}
	k := te.id
	if op&8 != 0 {
		k = int(op>>4) % len(w.evs)
	}
	w.apply(op&7, k, arg)
}

// apply performs an ArmHandler (kinds 0–1) or ArmTick (2–3) due 0, 5, 10 or
// 15 after now, so ties are common, a Cancel (4), or a zeroing (5), on event
// k. Pending events are not re-armed or zeroed.
func (w *tickWorld) apply(kind byte, k int, arg byte) {
	te, m := &w.evs[k], &w.model[k]
	at := w.s.Now() + Time(arg%4)*5
	switch {
	case kind == 4:
		if w.s.Cancel(&te.ev) != m.pending {
			w.t.Fatalf("Cancel of event %d disagrees with the model", k)
		}
		m.pending = false
	case m.pending:
	case kind == 5:
		te.ev = Event{}
		m.seq = 0
	case kind < 2:
		w.s.ArmHandler(&te.ev, at, te)
		w.armed++
		*m = tickModel{at: at, pending: true, seq: w.armed}
	default:
		w.s.ArmTick(&te.ev, at, te)
		if !m.tick || m.seq == 0 {
			w.armed++
			m.seq = w.armed
		}
		m.at, m.pending, m.tick = at, true, true
	}
}

// clone forks the world through Scheduler.Clone the way a snapshot forks
// its owners: every event is value-copied, so a parked tick chain keeps its
// place, and each pending copy is reseated into the fork.
func (w *tickWorld) clone() *tickWorld {
	nw := &tickWorld{t: w.t, s: w.s.Clone(), data: w.data, pos: w.pos, armed: w.armed, model: w.model}
	for i := range nw.evs {
		nw.evs[i] = tickEvent{ev: w.evs[i].ev, id: i, w: nw}
		nw.s.Reseat(&nw.evs[i].ev, &nw.evs[i])
	}
	if err := nw.s.Seated(); err != nil {
		w.t.Fatal(err)
	}
	return nw
}

func checkTickScript(t *testing.T, data []byte) {
	w := &tickWorld{t: t, s: NewScheduler(100), data: data}
	for i := range w.evs {
		w.evs[i] = tickEvent{id: i, w: w}
	}
	for {
		op, arg, ok := w.next()
		if !ok {
			break
		}
		switch op & 7 {
		case 6:
			if arg&1 == 0 {
				w.s.Step()
			} else {
				w.s.RunUntil(w.s.Now() + Time(arg%40))
			}
		case 7:
			w = w.clone()
		default:
			w.apply(op&7, int(op>>3)%len(w.evs), arg)
		}
		n := 0
		for _, m := range w.model {
			if m.pending {
				n++
			}
		}
		if w.s.Pending() != n {
			t.Fatalf("Pending %d, the model holds %d", w.s.Pending(), n)
		}
	}
	// The script is spent, so callbacks no longer re-arm and this ends.
	drain(w.s)
	if k := w.due(); k >= 0 {
		t.Fatalf("event %d never fired", k)
	}
}

func FuzzSchedulerTicks(f *testing.F) {
	f.Add([]byte{})
	// Tick and heap arms due at one instant, then runs, cancels, a clone
	// and zeroings, partly performed by the firing callbacks.
	f.Add([]byte{2, 1, 10, 1, 16, 1, 6, 3, 4, 0, 2, 1, 7, 0, 14, 1, 6, 1, 13, 0, 2, 3, 6, 39})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		script := make([]byte, 64+32*i)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(checkTickScript)
}
