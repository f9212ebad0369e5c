package coloc

import (
	"testing"
	"time"

	"eaao/internal/core/covert"
	"eaao/internal/core/fingerprint"
	"eaao/internal/faas"
	"eaao/internal/metrics"
	"eaao/internal/sandbox"
)

func testWorld(t *testing.T, seed uint64, n int, gen sandbox.Gen) (*faas.Platform, []*faas.Instance) {
	t.Helper()
	p := faas.USEast1Profile()
	p.Name = "t"
	p.NumHosts = 120
	p.PlacementGroups = 3
	p.BasePoolSize = 30
	p.AccountHelperPool = 60
	p.ServiceHelperSize = 45
	p.ServiceHelperFresh = 5
	pl := faas.MustPlatform(seed, p)
	insts, err := pl.MustRegion("t").Account("a").DeployService("s", faas.ServiceConfig{Gen: gen}).Launch(n)
	if err != nil {
		t.Fatal(err)
	}
	return pl, insts
}

// itemsGen1 fingerprints instances with the Gen 1 technique.
func itemsGen1(t *testing.T, insts []*faas.Instance, precision time.Duration) []Item {
	t.Helper()
	items := make([]Item, len(insts))
	for i, inst := range insts {
		s, err := fingerprint.CollectGen1(inst.MustGuest())
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprint.Gen1FromSample(s, precision)
		items[i] = Item{Inst: inst, Fingerprint: fp.Key()}
	}
	return items
}

// truthLabels returns ground-truth host ids.
func truthLabels(insts []*faas.Instance) []faas.HostID {
	out := make([]faas.HostID, len(insts))
	for i, inst := range insts {
		id, _ := inst.HostID()
		out[i] = id
	}
	return out
}

func TestVerifyMatchesGroundTruth(t *testing.T) {
	pl, insts := testWorld(t, 1, 200, sandbox.Gen1)
	tester := covert.NewTester(pl.Scheduler(), covert.DefaultConfig())
	items := itemsGen1(t, insts, fingerprint.DefaultPrecision)
	res, err := Verify(tester, items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	score := metrics.ScoreOf(res.Labels, truthLabels(insts))
	if score.FMI < 0.999 {
		t.Errorf("verified clustering FMI = %.6f, want ~1 (verification must fix fingerprint errors)", score.FMI)
	}
	// Every instance in exactly one cluster.
	total := 0
	for _, c := range res.Clusters {
		total += len(c)
	}
	if total != len(insts) {
		t.Errorf("clusters cover %d of %d instances", total, len(insts))
	}
}

// A tester shared across runs keeps counting, but each Result reports only
// its own run's tests: verifying the same items twice costs the same twice.
func TestVerifyReportsPerRunTests(t *testing.T) {
	pl, insts := testWorld(t, 1, 200, sandbox.Gen1)
	tester := covert.NewTester(pl.Scheduler(), covert.DefaultConfig())
	items := itemsGen1(t, insts, fingerprint.DefaultPrecision)
	first, err := Verify(tester, items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	second, err := Verify(tester, items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if first.Tests == 0 || second.Tests != first.Tests || second.SerializedTime != first.SerializedTime {
		t.Errorf("second run reported %d tests (%v), first %d (%v)",
			second.Tests, second.SerializedTime, first.Tests, first.SerializedTime)
	}
	if got := tester.Stats().Tests; got != first.Tests+second.Tests {
		t.Errorf("tester counted %d tests, runs reported %d", got, first.Tests+second.Tests)
	}
}

func TestVerifyIsCheapWithGoodFingerprints(t *testing.T) {
	pl, insts := testWorld(t, 2, 200, sandbox.Gen1)
	tester := covert.NewTester(pl.Scheduler(), covert.DefaultConfig())
	items := itemsGen1(t, insts, fingerprint.DefaultPrecision)
	res, err := Verify(tester, items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	hosts := make(map[faas.HostID]bool)
	for _, id := range truthLabels(insts) {
		hosts[id] = true
	}
	// 200 instances at ~11/host → ~19 hosts. Groups of ~11 need ~4 chunk
	// tests + ~1 rep test each, plus the step-3 sweep. Budget: well under
	// pairwise (19,900) and within a small multiple of the host count.
	budget := len(hosts) * 8
	if res.Tests > budget {
		t.Errorf("verification used %d tests for %d hosts (budget %d)", res.Tests, len(hosts), budget)
	}
	if res.Tests >= PairwiseTestCount(len(insts))/100 {
		t.Errorf("verification used %d tests; pairwise would use %d", res.Tests, PairwiseTestCount(len(insts)))
	}
}

func TestVerifyDetectsInjectedFalsePositive(t *testing.T) {
	// Force two different hosts into one fingerprint group: step 2 must
	// split them.
	pl, insts := testWorld(t, 3, 60, sandbox.Gen1)
	tester := covert.NewTester(pl.Scheduler(), covert.DefaultConfig())
	items := make([]Item, len(insts))
	for i, inst := range insts {
		items[i] = Item{Inst: inst, Fingerprint: fingerprint.Key{Model: "same-for-everyone"}}
	}
	res, err := Verify(tester, items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	score := metrics.ScoreOf(res.Labels, truthLabels(insts))
	if score.Precision < 0.999 {
		t.Errorf("precision %.4f after verification of a degenerate grouping", score.Precision)
	}
	if score.Recall < 0.999 {
		t.Errorf("recall %.4f after verification of a degenerate grouping", score.Recall)
	}
}

func TestVerifyDetectsInjectedFalseNegative(t *testing.T) {
	// Give every instance a unique fingerprint: step 3 must merge the truly
	// co-located ones back together.
	pl, insts := testWorld(t, 4, 40, sandbox.Gen1)
	tester := covert.NewTester(pl.Scheduler(), covert.DefaultConfig())
	items := make([]Item, len(insts))
	for i, inst := range insts {
		items[i] = Item{Inst: inst, Fingerprint: fingerprint.Key{Model: "unique", A: int64(i)}}
	}
	res, err := Verify(tester, items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	score := metrics.ScoreOf(res.Labels, truthLabels(insts))
	if score.Recall < 0.999 {
		t.Errorf("recall %.4f; step 3 failed to merge false negatives", score.Recall)
	}
	if res.FalseNegativeMerges == 0 {
		t.Error("no false-negative merges recorded despite unique fingerprints")
	}
}

func TestGen2ModeSkipsStep3AndParallelizes(t *testing.T) {
	pl, insts := testWorld(t, 5, 150, sandbox.Gen2)
	tester := covert.NewTester(pl.Scheduler(), covert.DefaultConfig())
	items := make([]Item, len(insts))
	for i, inst := range insts {
		fp, err := fingerprint.CollectGen2(inst.MustGuest())
		if err != nil {
			t.Fatal(err)
		}
		items[i] = Item{Inst: inst, Fingerprint: fp.Key()}
	}
	opt := DefaultOptions()
	opt.AssumeNoFalseNegatives = true
	res, err := Verify(tester, items, opt)
	if err != nil {
		t.Fatal(err)
	}
	score := metrics.ScoreOf(res.Labels, truthLabels(insts))
	if score.FMI < 0.999 {
		t.Errorf("Gen2 verified clustering FMI = %.4f", score.FMI)
	}
	if res.FalseNegativeMerges != 0 {
		t.Errorf("Gen2 mode ran the step-3 sweep: %d merges", res.FalseNegativeMerges)
	}
}

func TestVerifyRejectsBadThreshold(t *testing.T) {
	pl, insts := testWorld(t, 6, 3, sandbox.Gen1)
	tester := covert.NewTester(pl.Scheduler(), covert.DefaultConfig())
	items := itemsGen1(t, insts, fingerprint.DefaultPrecision)
	if _, err := Verify(tester, items, Options{M: 1}); err == nil {
		t.Error("M=1 accepted")
	}
}

func TestVerifyHigherThreshold(t *testing.T) {
	// m=3 allows groups of 5 per test; correctness must hold.
	pl, insts := testWorld(t, 7, 150, sandbox.Gen1)
	tester := covert.NewTester(pl.Scheduler(), covert.DefaultConfig())
	items := itemsGen1(t, insts, fingerprint.DefaultPrecision)
	res, err := Verify(tester, items, Options{M: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With m=3, hosts holding only 1–2 of our instances cannot be confirmed
	// (their instances all test negative), so recall may drop — but
	// precision must stay perfect.
	score := metrics.ScoreOf(res.Labels, truthLabels(insts))
	if score.Precision < 0.999 {
		t.Errorf("m=3 precision %.4f", score.Precision)
	}
}

func TestPairwiseBaseline(t *testing.T) {
	pl, insts := testWorld(t, 8, 40, sandbox.Gen1)
	tester := covert.NewTester(pl.Scheduler(), covert.DefaultConfig())
	res, err := VerifyPairwise(tester, insts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tests != PairwiseTestCount(40) {
		t.Errorf("pairwise used %d tests, want %d", res.Tests, PairwiseTestCount(40))
	}
	score := metrics.ScoreOf(res.Labels, truthLabels(insts))
	if score.FMI < 0.999 {
		t.Errorf("pairwise FMI = %.4f", score.FMI)
	}
}

func TestSIEDoesNotHelpInFaaS(t *testing.T) {
	// The orchestrator stacks instances, so SIE eliminates (almost) nobody
	// and the follow-up pairwise work stays quadratic.
	pl, insts := testWorld(t, 9, 60, sandbox.Gen1)
	tester := covert.NewTester(pl.Scheduler(), covert.DefaultConfig())
	res, err := VerifySIE(tester, insts)
	if err != nil {
		t.Fatal(err)
	}
	score := metrics.ScoreOf(res.Labels, truthLabels(insts))
	if score.FMI < 0.99 {
		t.Errorf("SIE FMI = %.4f", score.FMI)
	}
	if res.Tests < PairwiseTestCount(60)/2 {
		t.Errorf("SIE used only %d tests; in FaaS it should stay near the pairwise %d",
			res.Tests, PairwiseTestCount(60))
	}
}

func TestScalableBeatsBaselinesOnCost(t *testing.T) {
	pl, insts := testWorld(t, 10, 120, sandbox.Gen1)
	tester := covert.NewTester(pl.Scheduler(), covert.DefaultConfig())
	items := itemsGen1(t, insts, fingerprint.DefaultPrecision)
	ours, err := Verify(tester, items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tester.ResetStats()
	pair, err := VerifyPairwise(tester, insts)
	if err != nil {
		t.Fatal(err)
	}
	if ours.Tests*20 > pair.Tests {
		t.Errorf("scalable method used %d tests vs pairwise %d; expected ≥20x advantage",
			ours.Tests, pair.Tests)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(6)
	uf.union(0, 1)
	uf.union(2, 3)
	uf.union(1, 3)
	if uf.find(0) != uf.find(2) {
		t.Error("transitive union broken")
	}
	if uf.find(4) == uf.find(0) || uf.find(4) == uf.find(5) {
		t.Error("spurious union")
	}
	cs := uf.clusters([]int{10, 11, 12, 13, 14, 15})
	if len(cs) != 3 {
		t.Errorf("clusters = %v", cs)
	}
}
