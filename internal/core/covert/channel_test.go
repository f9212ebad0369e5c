package covert

import (
	"testing"
	"time"

	"eaao/internal/faas"
)

// A plain Tester drives its config's resource channel, so it must be
// indistinguishable from NewChannelTester(RNGChannel()): two same-seed
// worlds, one per constructor, produce identical verdicts round for round
// and both label their channel "rng".
func TestRNGChannelMatchesDirectPath(t *testing.T) {
	plA, instsA := testWorld(t, 31, 80)
	plB, instsB := testWorld(t, 31, 80)
	direct := NewTester(plA.Scheduler(), DefaultConfig())
	channel := NewChannelTester(plB.Scheduler(), RNGChannel(), DefaultConfig())
	if direct.Channel().Name() != "rng" || channel.Channel().Name() != "rng" {
		t.Fatalf("channels %q / %q, want rng for both",
			direct.Channel().Name(), channel.Channel().Name())
	}
	for trial := 0; trial < 12; trial++ {
		lo := (trial * 7) % (len(instsA) - 3)
		a, err := direct.CTest(instsA[lo:lo+3], 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := channel.CTest(instsB[lo:lo+3], 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d instance %d: direct=%v channel=%v", trial, i, a[i], b[i])
			}
		}
	}
	if plA.Now() != plB.Now() {
		t.Errorf("clocks diverged: %v vs %v", plA.Now(), plB.Now())
	}
	if direct.Stats() != channel.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", direct.Stats(), channel.Stats())
	}
}

func TestLLCChannelClassifiesPairs(t *testing.T) {
	pl, insts := testWorld(t, 32, 60)
	if err := LLCConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	tester := NewChannelTester(pl.Scheduler(), LLCChannel(), LLCConfig())
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

func TestMultiTesterMajority(t *testing.T) {
	pl, insts := testWorld(t, 33, 60)
	mt := NewMultiTester(pl.Scheduler(), 0, RNGChannel(), LLCChannel(), MemBusChannel())
	coA, coB, farA, farB := findPairs(t, insts)

	wantDur := DefaultConfig().TestDuration + LLCConfig().TestDuration + MemBusConfig().TestDuration
	if got := mt.Config().TestDuration; got != wantDur {
		t.Errorf("combined TestDuration = %v, want %v", got, wantDur)
	}

	sink := &recordingSink{}
	mt.SetSink(sink)
	before := pl.Now()
	pos, err := mt.PairTest(insts[coA], insts[coB])
	if err != nil {
		t.Fatal(err)
	}
	if !pos {
		t.Error("co-located pair negative on the combined tester")
	}
	if got := pl.Now().Sub(before); got != wantDur {
		t.Errorf("combined test advanced the clock %v, want %v", got, wantDur)
	}
	// One combined invocation, three per-channel executions with distinct
	// labels.
	if mt.Stats().Tests != 1 {
		t.Errorf("combined Tests = %d, want 1", mt.Stats().Tests)
	}
	if len(sink.events) != 3 {
		t.Fatalf("sink saw %d events, want one per member channel", len(sink.events))
	}
	seen := map[string]bool{}
	for _, ev := range sink.events {
		seen[ev.Channel] = true
	}
	if !seen["rng"] || !seen["llc"] || !seen["membus"] {
		t.Errorf("channel labels = %v", seen)
	}
	for _, child := range mt.Children() {
		if child.Stats().Tests != 1 {
			t.Errorf("child %v ran %d tests, want 1", child.Config().Resource, child.Stats().Tests)
		}
	}

	neg, err := mt.PairTest(insts[farA], insts[farB])
	if err != nil {
		t.Fatal(err)
	}
	if neg {
		t.Error("separated pair positive on the combined tester")
	}

	mt.ResetStats()
	if mt.Stats().Tests != 0 || mt.Children()[0].Stats().Tests != 0 {
		t.Error("ResetStats did not clear combined and child counters")
	}
}

// A majority across channels outvotes corruption confined to one family: with
// the RNG channel under a certain false-negative storm, the single-channel
// RNG tester misses a co-located pair but the combined tester still finds it.
func TestMultiTesterOutvotesTargetedCorruption(t *testing.T) {
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

	mt := NewMultiTester(pl.Scheduler(), 0, RNGChannel(), LLCChannel(), MemBusChannel())
	pos, err = mt.PairTest(insts[coA], insts[coB])
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
		r, err := RunnerFor(name, pl.Scheduler(), 3)
		if err != nil {
			t.Fatalf("RunnerFor(%q): %v", name, err)
		}
		tester, ok := r.(*Tester)
		if !ok {
			t.Fatalf("RunnerFor(%q) returned %T, want *Tester", name, r)
		}
		if tester.Config().VoteBudget != 3 {
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
	r, err := RunnerFor("combined", pl.Scheduler(), 2)
	if err != nil {
		t.Fatal(err)
	}
	mt, ok := r.(*MultiTester)
	if !ok {
		t.Fatalf("RunnerFor(combined) returned %T", r)
	}
	if len(mt.Children()) != 3 {
		t.Errorf("combined runner has %d channels", len(mt.Children()))
	}
	for _, c := range mt.Children() {
		if c.Config().VoteBudget != 2 {
			t.Errorf("combined child %v lost the vote budget", c.Config().Resource)
		}
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

func TestChannelByName(t *testing.T) {
	for name, want := range map[string]faas.Resource{
		"":       faas.ResourceRNG,
		"rng":    faas.ResourceRNG,
		"llc":    faas.ResourceLLC,
		"membus": faas.ResourceMemBus,
	} {
		ch, err := ChannelByName(name)
		if err != nil {
			t.Fatalf("ChannelByName(%q): %v", name, err)
		}
		if ch.Config().Resource != want {
			t.Errorf("ChannelByName(%q) = %v", name, ch.Config().Resource)
		}
		if err := ch.Config().Validate(); err != nil {
			t.Errorf("channel %q config invalid: %v", name, err)
		}
	}
	// "combined" is a Runner, not a Channel.
	if _, err := ChannelByName("combined"); err == nil {
		t.Error("ChannelByName accepted the combined selector")
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
