package covert

import (
	"testing"
	"time"

	"eaao/internal/faas"
)

// testProfile is a 120-host region "t", small enough that a 60-instance
// launch packs several instances per host.
func testProfile() faas.RegionProfile {
	p := faas.USEast1Profile()
	p.Name = "t"
	p.NumHosts = 120
	p.PlacementGroups = 3
	p.BasePoolSize = 30
	p.AccountHelperPool = 60
	p.ServiceHelperSize = 45
	p.ServiceHelperFresh = 5
	return p
}

func testWorld(t testing.TB, seed uint64, n int) (*faas.Platform, []*faas.Instance) {
	t.Helper()
	pl := faas.MustPlatform(seed, testProfile())
	insts, err := pl.MustRegion("t").Account("a").DeployService("s", faas.ServiceConfig{}).Launch(n)
	if err != nil {
		t.Fatal(err)
	}
	return pl, insts
}

func sameHost(a, b *faas.Instance) bool {
	ha, _ := a.HostID()
	hb, _ := b.HostID()
	return ha == hb
}

// findPair returns indices of a co-located pair and of a non-co-located pair.
func findPairs(t testing.TB, insts []*faas.Instance) (coA, coB, farA, farB int) {
	t.Helper()
	coA, coB, farA, farB = -1, -1, -1, -1
	for i := 0; i < len(insts) && (coA < 0 || farA < 0); i++ {
		for j := i + 1; j < len(insts); j++ {
			if sameHost(insts[i], insts[j]) && coA < 0 {
				coA, coB = i, j
			}
			if !sameHost(insts[i], insts[j]) && farA < 0 {
				farA, farB = i, j
			}
		}
	}
	if coA < 0 || farA < 0 {
		t.Fatal("could not find both a co-located and a separated pair")
	}
	return
}

func TestPairTest(t *testing.T) {
	pl, insts := testWorld(t, 1, 100)
	tester := NewTester(pl.Scheduler(), DefaultConfig())
	coA, coB, farA, farB := findPairs(t, insts)

	pos, err := tester.PairTest(insts[coA], insts[coB])
	if err != nil {
		t.Fatal(err)
	}
	if !pos {
		t.Error("co-located pair tested negative")
	}
	neg, err := tester.PairTest(insts[farA], insts[farB])
	if err != nil {
		t.Fatal(err)
	}
	if neg {
		t.Error("separated pair tested positive")
	}
}

func TestCTestAdvancesClockAndCounts(t *testing.T) {
	pl, insts := testWorld(t, 2, 10)
	tester := NewTester(pl.Scheduler(), DefaultConfig())
	before := pl.Now()
	if _, err := tester.CTest(insts[:3], 2); err != nil {
		t.Fatal(err)
	}
	if got := pl.Now().Sub(before); got != 100*time.Millisecond {
		t.Errorf("clock advanced %v, want 100ms", got)
	}
	st := tester.Stats()
	if st.Tests != 1 || st.PairsTested != 3 {
		t.Errorf("stats = %+v", st)
	}
	tester.ResetStats()
	if tester.Stats().Tests != 0 {
		t.Error("ResetStats did not reset")
	}
}

func TestCTestThresholdM(t *testing.T) {
	// With m=3, a pair of co-located instances is NOT enough to test
	// positive; it takes at least 3 on one host.
	pl, insts := testWorld(t, 3, 200)
	tester := NewTester(pl.Scheduler(), DefaultConfig())

	byHost := make(map[faas.HostID][]*faas.Instance)
	for _, inst := range insts {
		id, _ := inst.HostID()
		byHost[id] = append(byHost[id], inst)
	}
	var trio []*faas.Instance
	for _, group := range byHost {
		if len(group) >= 3 {
			trio = group[:3]
			break
		}
	}
	if trio == nil {
		t.Fatal("no host with 3+ instances")
	}
	// All three together: every one sees 3 units ≥ m=3 → positive.
	res, err := tester.CTest(trio, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range res {
		if !b {
			t.Errorf("instance %d of co-located trio negative at m=3", i)
		}
	}
	// Only two of them: 2 units < m=3 → negative.
	res, err = tester.CTest(trio[:2], 3)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] || res[1] {
		t.Error("co-located pair positive at m=3")
	}
}

func TestCTestSingleton(t *testing.T) {
	pl, insts := testWorld(t, 4, 5)
	tester := NewTester(pl.Scheduler(), DefaultConfig())
	res, err := tester.CTest(insts[:1], 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] {
		t.Error("lone instance tested positive (background noise should not reach 30/60 votes)")
	}
}

func TestCTestMixedGroup(t *testing.T) {
	// A test of {co-located pair, lone instance} must mark exactly the pair.
	pl, insts := testWorld(t, 5, 150)
	tester := NewTester(pl.Scheduler(), DefaultConfig())
	coA, coB, _, _ := findPairs(t, insts)
	var lone *faas.Instance
	ha, _ := insts[coA].HostID()
	for _, inst := range insts {
		if id, _ := inst.HostID(); id != ha {
			lone = inst
			break
		}
	}
	group := []*faas.Instance{insts[coA], insts[coB], lone}
	res, err := tester.CTest(group, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0] || !res[1] {
		t.Error("co-located pair members negative")
	}
	if res[2] {
		t.Error("lone member positive")
	}
}

func TestCTestErrors(t *testing.T) {
	pl, insts := testWorld(t, 6, 3)
	tester := NewTester(pl.Scheduler(), DefaultConfig())
	if _, err := tester.CTest(insts, 1); err == nil {
		t.Error("m=1 accepted")
	}
	if _, err := tester.CTest(nil, 2); err == nil {
		t.Error("empty test accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Rounds: 0, VoteThreshold: 1, TestDuration: time.Millisecond},
		{Rounds: 10, VoteThreshold: 0, TestDuration: time.Millisecond},
		{Rounds: 10, VoteThreshold: 11, TestDuration: time.Millisecond},
		{Rounds: 10, VoteThreshold: 5, TestDuration: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
}

func TestNewTesterPanicsOnBadConfig(t *testing.T) {
	pl, _ := testWorld(t, 7, 1)
	voted := LLCConfig()
	voted.VoteBudget = 3
	for name, cfgs := range map[string][]Config{
		"invalid":            {Config{}},
		"none":               nil,
		"budgets disagree":   {DefaultConfig(), voted},
		"one invalid of two": {DefaultConfig(), {}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewTester(pl.Scheduler(), cfgs...)
		}()
	}
}

func TestMaxGroupSize(t *testing.T) {
	if MaxGroupSize(2) != 3 || MaxGroupSize(3) != 5 {
		t.Error("MaxGroupSize wrong")
	}
}

// The false-positive rate of a full CTest must be essentially zero: a lone
// instance over many tests should never accumulate 30/60 background rounds.
func TestNoFalsePositivesOverManyTests(t *testing.T) {
	pl, insts := testWorld(t, 8, 40)
	tester := NewTester(pl.Scheduler(), DefaultConfig())
	// Pick instances that are each alone on their host within this set.
	seen := make(map[faas.HostID]int)
	for _, inst := range insts {
		id, _ := inst.HostID()
		seen[id]++
	}
	var loners []*faas.Instance
	for _, inst := range insts {
		if id, _ := inst.HostID(); seen[id] == 1 {
			loners = append(loners, inst)
		}
	}
	if len(loners) == 0 {
		t.Skip("no singleton instances in this draw")
	}
	for trial := 0; trial < 20; trial++ {
		res, err := tester.CTest(loners[:1], 2)
		if err != nil {
			t.Fatal(err)
		}
		if res[0] {
			t.Fatal("singleton tested positive")
		}
	}
}

func TestMemBusChannelNoisierButWorkable(t *testing.T) {
	pl, insts := testWorld(t, 9, 120)
	coA, coB, farA, farB := findPairs(t, insts)

	// Background traffic trips ~18% of memory-bus rounds on a quiet host —
	// over 20x the RNG channel's rate. The majority vote absorbs it, but
	// only because each test spends many rounds; the practical price of the
	// channel is its per-test duration (seconds instead of 100 ms), which is
	// exactly why pairwise membus verification was untenable at FaaS scale.
	var bgRounds [1]int
	if err := faas.ContentionRounds(faas.ResourceMemBus, insts[farA:farA+1], 40, 2, bgRounds[:], nil); err != nil {
		t.Fatal(err)
	}
	if bgRounds[0] < 2 {
		t.Errorf("membus background hit only %d/40 rounds; expected frequent noise", bgRounds[0])
	}
	tester := NewTester(pl.Scheduler(), MemBusConfig())
	pos, err := tester.PairTest(insts[coA], insts[coB])
	if err != nil {
		t.Fatal(err)
	}
	if !pos {
		t.Error("co-located pair negative on tuned membus channel")
	}
	neg, err := tester.PairTest(insts[farA], insts[farB])
	if err != nil {
		t.Fatal(err)
	}
	if neg {
		t.Error("separated pair positive on tuned membus channel")
	}
	if MemBusConfig().TestDuration <= DefaultConfig().TestDuration*10 {
		t.Error("membus tests should be far slower than RNG tests")
	}
}

func TestResourceStrings(t *testing.T) {
	if faas.ResourceRNG.String() != "rng" || faas.ResourceMemBus.String() != "membus" {
		t.Error("resource names wrong")
	}
	if faas.ResourceLLC.String() != "llc" {
		t.Error("llc resource name wrong")
	}
	if faas.Resource(9).String() != "resource?" {
		t.Error("unknown resource name")
	}
}

// recordingSink captures every TestEvent for inspection.
type recordingSink struct{ events []TestEvent }

func (r *recordingSink) ObserveTest(ev TestEvent) { r.events = append(r.events, ev) }

func TestSinkObservesEveryCTest(t *testing.T) {
	pl, insts := testWorld(t, 7, 30)
	tester := NewTester(pl.Scheduler(), DefaultConfig())
	sink := &recordingSink{}
	tester.SetSink(sink)

	out, err := tester.CTest(insts[:5], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.events) != 1 {
		t.Fatalf("sink saw %d events after one CTest", len(sink.events))
	}
	ev := sink.events[0]
	if ev.Participants != 5 {
		t.Errorf("participants = %d", ev.Participants)
	}
	if ev.Duration != tester.Config().TestDuration {
		t.Errorf("duration = %v, want %v", ev.Duration, tester.Config().TestDuration)
	}
	positives := 0
	for _, pos := range out {
		if pos {
			positives++
		}
	}
	if ev.Positives != positives {
		t.Errorf("event positives = %d, CTest reported %d", ev.Positives, positives)
	}

	// PairTest is a two-instance CTest, so it must be observed too.
	if _, err := tester.PairTest(insts[0], insts[1]); err != nil {
		t.Fatal(err)
	}
	if len(sink.events) != 2 || sink.events[1].Participants != 2 {
		t.Fatalf("PairTest not observed: %+v", sink.events)
	}
	if got, want := len(sink.events), tester.Stats().Tests; got != want {
		t.Errorf("sink events %d diverge from tester stats %d", got, want)
	}

	// Removing the sink stops observation without touching the tester.
	tester.SetSink(nil)
	if _, err := tester.CTest(insts[:3], 2); err != nil {
		t.Fatal(err)
	}
	if len(sink.events) != 2 {
		t.Error("removed sink still observed a test")
	}
}
