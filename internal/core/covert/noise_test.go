package covert

import (
	"testing"
)

// TestMinMarginReported pins the TestEvent margin signal: on a quiet world
// verdicts are decisive — a separated pair votes near zero and a co-located
// pair near Rounds, both far from the threshold — so the reported minimum
// margin is comfortably large.
func TestMinMarginReported(t *testing.T) {
	pl, insts := testWorld(t, 3, 100)
	coA, coB, farA, farB := findPairs(t, insts)
	tester := NewTester(pl.Scheduler(), DefaultConfig())
	sink := &recordingSink{}
	tester.SetSink(sink)
	for _, pair := range [][2]int{{coA, coB}, {farA, farB}} {
		if _, err := tester.PairTest(insts[pair[0]], insts[pair[1]]); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.events) != 2 {
		t.Fatalf("saw %d events", len(sink.events))
	}
	for i, ev := range sink.events {
		if ev.MinMargin < 0.3 || ev.MinMargin > 1 {
			t.Errorf("event %d: quiet-world margin = %.3f, want decisive (≥ 0.3)", i, ev.MinMargin)
		}
	}
}

// TestRebudget checks the escalation hook: the clone starts with fresh stats
// and no sink, and the original keeps its budget, counters and observer.
// (That the clone keeps channels and thresholds is TestChannelTable's.)
func TestRebudget(t *testing.T) {
	pl, insts := testWorld(t, 6, 3)
	orig, err := RunnerFor("llc", pl.Scheduler(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	orig.SetSink(sink)
	if _, err := orig.CTest(insts, 2); err != nil {
		t.Fatal(err)
	}
	clone := orig.Rebudget(5)
	if clone.Config().VoteBudget != 5 || orig.Config().VoteBudget != 1 {
		t.Errorf("budgets = %d/%d", clone.Config().VoteBudget, orig.Config().VoteBudget)
	}
	if clone.Stats() != (Stats{}) || orig.Stats().Tests != 1 {
		t.Errorf("stats: clone %+v, original %+v", clone.Stats(), orig.Stats())
	}
	if _, err := clone.CTest(insts, 2); err != nil {
		t.Fatal(err)
	}
	if len(sink.events) != 1 {
		t.Errorf("the original's sink saw %d events, want only its own 1", len(sink.events))
	}
}
