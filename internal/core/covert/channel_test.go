package covert

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"eaao/internal/faas"
)

func TestLLCChannelClassifiesPairs(t *testing.T) {
	pl, insts := testWorld(t, 32, 60)
	if err := LLCConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	tester := NewTester(pl.Scheduler(), LLCConfig())
	coA, coB, farA, farB := findPairs(t, insts)
	pos, err := tester.PairTest(insts[coA], insts[coB])
	if err != nil {
		t.Fatal(err)
	}
	if !pos {
		t.Error("co-located pair negative on the LLC channel")
	}
	neg, err := tester.PairTest(insts[farA], insts[farB])
	if err != nil {
		t.Fatal(err)
	}
	if neg {
		t.Error("separated pair positive on the LLC channel")
	}
	// The channel's selling point: a test costs a fraction of the RNG's.
	if LLCConfig().TestDuration*4 > DefaultConfig().TestDuration {
		t.Error("LLC tests should be several times faster than RNG tests")
	}
}

// A majority across channels outvotes corruption confined to one family: with
// the RNG channel under a certain false-negative storm, the single-channel
// RNG tester misses a co-located pair but the combined tester still finds it.
func TestCombinedOutvotesTargetedCorruption(t *testing.T) {
	p := faas.USEast1Profile()
	p.Name = "t"
	p.NumHosts = 120
	p.PlacementGroups = 3
	p.BasePoolSize = 30
	p.AccountHelperPool = 60
	p.ServiceHelperSize = 45
	p.ServiceHelperFresh = 5
	p.Faults.PerChannel[faas.ResourceRNG] = faas.ChannelFaultRates{FalseNegativeRate: 1}
	pl := faas.MustPlatform(34, p)
	insts, err := pl.MustRegion("t").Account("a").DeployService("s", faas.ServiceConfig{}).Launch(60)
	if err != nil {
		t.Fatal(err)
	}
	coA, coB, _, _ := findPairs(t, insts)

	rng := NewTester(pl.Scheduler(), DefaultConfig())
	pos, err := rng.PairTest(insts[coA], insts[coB])
	if err != nil {
		t.Fatal(err)
	}
	if pos {
		t.Fatal("RNG tester found the pair through a certain false-negative storm")
	}

	combined, err := RunnerFor(CombinedChannelName, pl.Scheduler(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pos, err = combined.PairTest(insts[coA], insts[coB])
	if err != nil {
		t.Fatal(err)
	}
	if !pos {
		t.Error("combined tester lost the pair to single-channel corruption")
	}
}

func TestRunnerFor(t *testing.T) {
	pl, _ := testWorld(t, 35, 1)
	for _, name := range []string{"", "rng", "llc", "membus"} {
		tester, err := RunnerFor(name, pl.Scheduler(), 3)
		if err != nil {
			t.Fatalf("RunnerFor(%q): %v", name, err)
		}
		if len(tester.Channels()) != 1 || tester.Config().VoteBudget != 3 {
			t.Errorf("RunnerFor(%q) lost the vote budget", name)
		}
		wantRes := faas.ResourceRNG
		switch name {
		case "llc":
			wantRes = faas.ResourceLLC
		case "membus":
			wantRes = faas.ResourceMemBus
		}
		if tester.Config().Resource != wantRes {
			t.Errorf("RunnerFor(%q) drives %v", name, tester.Config().Resource)
		}
	}
	combined, err := RunnerFor("combined", pl.Scheduler(), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []faas.Resource{faas.ResourceRNG, faas.ResourceLLC, faas.ResourceMemBus}
	if got := combined.Channels(); len(got) != len(want) {
		t.Fatalf("combined runner has %d channels, want %d", len(got), len(want))
	}
	for i, c := range combined.Channels() {
		if c.Resource != want[i] || c.VoteBudget != 2 {
			t.Errorf("combined channel %d = %v budget %d, want %v budget 2", i, c.Resource, c.VoteBudget, want[i])
		}
	}
	wantDur := DefaultConfig().TestDuration + LLCConfig().TestDuration + MemBusConfig().TestDuration
	if got := combined.Config().TestDuration; got != wantDur {
		t.Errorf("combined TestDuration = %v, want %v", got, wantDur)
	}
	if _, err := RunnerFor("hyperlane", pl.Scheduler(), 0); err == nil {
		t.Error("unknown channel accepted")
	}

	for _, name := range ChannelNames() {
		if !ValidChannel(name) {
			t.Errorf("listed channel %q not valid", name)
		}
	}
	if !ValidChannel("") || ValidChannel("hyperlane") {
		t.Error("ValidChannel wrong on edge cases")
	}
}

func TestConfigRejectsUnknownResource(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Resource = faas.Resource(9)
	if err := cfg.Validate(); err == nil {
		t.Error("config with unregistered resource validated")
	}
}

// Per-channel TestEvent labels flow from the plain Tester too, so ledgers are
// channel-dimensional regardless of construction path.
func TestPlainTesterLabelsEvents(t *testing.T) {
	pl, insts := testWorld(t, 36, 10)
	tester := NewTester(pl.Scheduler(), MemBusConfig())
	sink := &recordingSink{}
	tester.SetSink(sink)
	if _, err := tester.CTest(insts[:2], 2); err != nil {
		t.Fatal(err)
	}
	if len(sink.events) != 1 || sink.events[0].Channel != "membus" {
		t.Errorf("events = %+v, want one membus-labeled event", sink.events)
	}
	if sink.events[0].Duration != 3*time.Second {
		t.Errorf("membus event duration = %v", sink.events[0].Duration)
	}
}

// TestChannelTable runs every channel RunnerFor resolves, single-shot and
// under a vote budget, through the properties every Tester must keep:
// same-seed worlds replay identically; each CTest advances the clock by
// reps·TestDuration, counts reps tests and emits one channel-labelled event
// per channel and repetition; Rebudget and Calibrated keep the channels in
// order.
func TestChannelTable(t *testing.T) {
	for _, name := range ChannelNames() {
		for _, budget := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/%d", name, budget), func(t *testing.T) {
				type world struct {
					pl     *faas.Platform
					insts  []*faas.Instance
					tester *Tester
					sink   *recordingSink
				}
				worlds := make([]world, 2)
				for w := range worlds {
					pl, insts := testWorld(t, 37, 40)
					tester, err := RunnerFor(name, pl.Scheduler(), budget)
					if err != nil {
						t.Fatal(err)
					}
					sink := &recordingSink{}
					tester.SetSink(sink)
					worlds[w] = world{pl, insts, tester, sink}
				}
				reps := max(budget, 1)
				a, b := worlds[0], worlds[1]
				chans := a.tester.Channels()
				dur := a.tester.Config().TestDuration
				for trial := 0; trial < 6; trial++ {
					group := a.insts[trial*3 : trial*3+3]
					beforeNow, beforeStats, beforeEvents := a.pl.Now(), a.tester.Stats(), len(a.sink.events)
					got, err := a.tester.CTest(group, 2)
					if err != nil {
						t.Fatal(err)
					}
					if d := a.pl.Now().Sub(beforeNow); d != time.Duration(reps)*dur {
						t.Errorf("trial %d advanced the clock %v, want %d×%v", trial, d, reps, dur)
					}
					st := a.tester.Stats()
					if st.Tests-beforeStats.Tests != reps || st.PairsTested-beforeStats.PairsTested != 3*reps ||
						st.InstanceTime-beforeStats.InstanceTime != time.Duration(3*reps)*dur {
						t.Errorf("trial %d stats %+v → %+v, want %d tests", trial, beforeStats, st, reps)
					}
					events := a.sink.events[beforeEvents:]
					if len(events) != reps*len(chans) {
						t.Fatalf("trial %d emitted %d events, want %d", trial, len(events), reps*len(chans))
					}
					for i, ev := range events {
						if ev.Channel != chans[i/reps].Resource.String() || ev.Repetition != i%reps {
							t.Errorf("trial %d event %d = %s rep %d", trial, i, ev.Channel, ev.Repetition)
						}
					}
					replay, err := b.tester.CTest(b.insts[trial*3:trial*3+3], 2)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, replay) {
						t.Errorf("trial %d verdicts %v, replay %v", trial, got, replay)
					}
				}
				if a.pl.Now() != b.pl.Now() || a.tester.Stats() != b.tester.Stats() ||
					!slices.Equal(a.sink.events, b.sink.events) {
					t.Error("same-seed worlds diverged")
				}

				rebudgeted := a.tester.Rebudget(5)
				for i, c := range rebudgeted.Channels() {
					want := chans[i]
					want.VoteBudget = 5
					if c != want {
						t.Errorf("rebudgeted channel %d = %+v, want %+v", i, c, want)
					}
				}
				if rebudgeted.Config().TestDuration != dur {
					t.Errorf("rebudgeted TestDuration = %v, want %v", rebudgeted.Config().TestDuration, dur)
				}

				calA, err := a.tester.Calibrated(a.insts[0], 100)
				if err != nil {
					t.Fatal(err)
				}
				calB, err := b.tester.Calibrated(b.insts[0], 100)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(calA.Channels(), calB.Channels()) {
					t.Error("same-seed calibrations diverged")
				}
				for i, c := range calA.Channels() {
					want := chans[i]
					want.VoteThreshold = c.VoteThreshold
					if c != want || c.VoteThreshold < 1 || c.VoteThreshold > c.Rounds {
						t.Errorf("calibrated channel %d = %+v, want %+v with a threshold in [1, Rounds]", i, c, chans[i])
					}
				}
			})
		}
	}
}
