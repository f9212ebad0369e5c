package attack

import (
	"maps"
	"slices"
	"testing"
	"time"

	"eaao/internal/core/covert"
	"eaao/internal/core/fingerprint"
	"eaao/internal/faas"
	"eaao/internal/sandbox"
)

// smallWorld builds a reduced three-group region for attack tests.
func smallWorld(t *testing.T, seed uint64) *faas.DataCenter {
	t.Helper()
	return faas.MustPlatform(seed, smallProfile("t")).MustRegion("t")
}

// smallProfile is the 200-host, four-group region smallWorld builds.
func smallProfile(name faas.Region) faas.RegionProfile {
	p := faas.USEast1Profile()
	p.Name = name
	p.NumHosts = 200
	p.PlacementGroups = 4
	p.BasePoolSize = 40
	p.AccountHelperPool = 90
	p.ServiceHelperSize = 70
	p.ServiceHelperFresh = 8
	return p
}

// smallCfg scales the paper's campaign down for test speed.
func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Services = 3
	cfg.InstancesPerLaunch = 250
	cfg.Launches = 4
	cfg.HoldActive = 10 * time.Second
	return cfg
}

// launchCampaign runs one strategy's launch stage through a fresh campaign.
func launchCampaign(acct *faas.Account, cfg Config, gen sandbox.Gen, s LaunchStrategy) (*CampaignResult, error) {
	c, err := NewCampaign(acct, cfg, gen, s)
	if err != nil {
		return nil, err
	}
	return c.Launch()
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
	bad := DefaultConfig()
	bad.Services = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero services validated")
	}
	bad = DefaultConfig()
	bad.Precision = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero precision validated")
	}
}

func TestNaiveStaysOnBaseHosts(t *testing.T) {
	dc := smallWorld(t, 1)
	res, err := launchCampaign(dc.Account("attacker"), smallCfg(), sandbox.Gen1, NaiveStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Live) != 3*250 {
		t.Fatalf("live = %d", len(res.Live))
	}
	// The naive footprint must stay within the base pool's size.
	if res.Footprint.Cumulative() > dc.Profile().BasePoolSize+3 {
		t.Errorf("naive footprint %d exceeds base pool %d",
			res.Footprint.Cumulative(), dc.Profile().BasePoolSize)
	}
}

func TestOptimizedExpandsFootprint(t *testing.T) {
	dc := smallWorld(t, 2)
	cfg := smallCfg()
	naive, err := launchCampaign(dc.Account("naive-acct"), cfg, sandbox.Gen1, NaiveStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := launchCampaign(dc.Account("opt-acct"), cfg, sandbox.Gen1, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Footprint.Cumulative() <= naive.Footprint.Cumulative()*3/2 {
		t.Errorf("optimized footprint %d not clearly larger than naive %d",
			opt.Footprint.Cumulative(), naive.Footprint.Cumulative())
	}
	// Live set is the final launch of each service.
	if len(opt.Live) != cfg.Services*cfg.InstancesPerLaunch {
		t.Errorf("optimized live = %d", len(opt.Live))
	}
	// Records: Services × Launches entries, cumulative monotone.
	if len(opt.Records) != cfg.Services*cfg.Launches {
		t.Fatalf("records = %d", len(opt.Records))
	}
	for i := 1; i < len(opt.Records); i++ {
		if opt.Records[i].Cumulative < opt.Records[i-1].Cumulative {
			t.Error("cumulative footprint decreased")
		}
	}
}

func TestOptimizedCoverageBeatsNaive(t *testing.T) {
	dc := smallWorld(t, 3)
	cfg := smallCfg()

	victim := dc.Account("victim")
	attacker := dc.Account("attacker")
	// Distinct placement groups make the naive strategy miss; skip the
	// test premise if the hash happened to collide.
	opt, err := launchCampaign(attacker, cfg, sandbox.Gen1, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	vic, err := victim.DeployService("login", faas.ServiceConfig{}).Launch(60)
	if err != nil {
		t.Fatal(err)
	}
	tester := covert.NewTester(dc.Scheduler(), covert.DefaultConfig())
	cov, _, err := MeasureCoverage(tester, opt.Live, vic, CoverageOpts{Precision: cfg.Precision})
	if err != nil {
		t.Fatal(err)
	}
	if !cov.AtLeastOne {
		t.Error("optimized strategy co-located with no victim instance")
	}
	if cov.Fraction() < 0.3 {
		t.Errorf("optimized coverage %.2f suspiciously low", cov.Fraction())
	}
	if cov.VictimTotal != 60 {
		t.Errorf("victim total = %d", cov.VictimTotal)
	}
}

func TestCoverageGroundTruthAgreement(t *testing.T) {
	// The covert-verified coverage must agree with simulator ground truth.
	dc := smallWorld(t, 4)
	cfg := smallCfg()
	opt, err := launchCampaign(dc.Account("attacker"), cfg, sandbox.Gen1, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	vic, err := dc.Account("victim").DeployService("login", faas.ServiceConfig{}).Launch(40)
	if err != nil {
		t.Fatal(err)
	}
	tester := covert.NewTester(dc.Scheduler(), covert.DefaultConfig())
	cov, _, err := MeasureCoverage(tester, opt.Live, vic, CoverageOpts{Precision: cfg.Precision})
	if err != nil {
		t.Fatal(err)
	}
	attackerHosts := make(map[faas.HostID]bool)
	for _, inst := range opt.Live {
		id, _ := inst.HostID()
		attackerHosts[id] = true
	}
	truth := 0
	for _, inst := range vic {
		id, _ := inst.HostID()
		if attackerHosts[id] {
			truth++
		}
	}
	if cov.VictimCovered != truth {
		t.Errorf("measured coverage %d, ground truth %d", cov.VictimCovered, truth)
	}
}

func TestGen2Coverage(t *testing.T) {
	dc := smallWorld(t, 5)
	cfg := smallCfg()
	opt, err := launchCampaign(dc.Account("attacker"), cfg, sandbox.Gen2, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	vic, err := dc.Account("victim").DeployService("login",
		faas.ServiceConfig{Gen: sandbox.Gen2}).Launch(40)
	if err != nil {
		t.Fatal(err)
	}
	tester := covert.NewTester(dc.Scheduler(), covert.DefaultConfig())
	cov, _, err := MeasureCoverage(tester, opt.Live, vic, CoverageOpts{Precision: cfg.Precision})
	if err != nil {
		t.Fatal(err)
	}
	// Gen2 fingerprints are coarse, but verification must still produce
	// sound coverage: compare with ground truth.
	attackerHosts := make(map[faas.HostID]bool)
	for _, inst := range opt.Live {
		id, _ := inst.HostID()
		attackerHosts[id] = true
	}
	truth := 0
	for _, inst := range vic {
		id, _ := inst.HostID()
		if attackerHosts[id] {
			truth++
		}
	}
	if cov.VictimCovered != truth {
		t.Errorf("gen2 measured %d, truth %d", cov.VictimCovered, truth)
	}
}

func TestFootprintTracker(t *testing.T) {
	dc := smallWorld(t, 6)
	svc := dc.Account("a").DeployService("s", faas.ServiceConfig{})
	insts, err := svc.Launch(100)
	if err != nil {
		t.Fatal(err)
	}
	ft := NewFootprintTracker(DefaultConfig().Precision)
	ap1, err := ft.Record(insts)
	if err != nil {
		t.Fatal(err)
	}
	if ap1 == 0 || ap1 > 100 {
		t.Fatalf("apparent = %d", ap1)
	}
	if ft.Cumulative() != ap1 {
		t.Errorf("cumulative %d != first apparent %d", ft.Cumulative(), ap1)
	}
	// Recording the same instances again adds nothing.
	ap2, err := ft.Record(insts)
	if err != nil {
		t.Fatal(err)
	}
	if ap2 != ap1 || ft.Cumulative() != ap1 {
		t.Errorf("re-record changed footprint: %d %d", ap2, ft.Cumulative())
	}
	if got := len(ft.Fingerprints()); got != ap1 {
		t.Errorf("Fingerprints() = %d entries", got)
	}
}

// TestFootprintTrackerEpochs drives one tracker through overlapping,
// disjoint, repeated-identical and empty batches, plus a batch that mixes in
// instances from a region where every probe faults. Each batch's
// apparent count must equal its distinct fingerprints among the instances
// that were fingerprinted, and the cumulative set must equal their union;
// skipped instances count toward neither.
func TestFootprintTrackerEpochs(t *testing.T) {
	faulty := smallProfile("faulty")
	faulty.Faults.ProbeFailureRate = 1
	pl := faas.MustPlatform(12, smallProfile("t"), faulty)
	insts, err := pl.MustRegion("t").Account("a").DeployService("s", faas.ServiceConfig{}).Launch(120)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := pl.MustRegion("faulty").Account("a").DeployService("s", faas.ServiceConfig{}).Launch(30)
	if err != nil {
		t.Fatal(err)
	}
	precision := DefaultConfig().Precision
	fps := make(map[*faas.Instance]fingerprint.Gen1, len(insts))
	for _, inst := range insts {
		one := NewFootprintTracker(precision)
		if _, err := one.Record([]*faas.Instance{inst}); err != nil {
			t.Fatal(err)
		}
		for fp := range one.Fingerprints() {
			fps[inst] = fp
		}
	}

	ft := NewFootprintTracker(precision)
	ft.SetProbeRetryBudget(2)
	union := map[fingerprint.Gen1]bool{}
	for _, b := range []struct {
		name  string
		batch []*faas.Instance
		bad   int // trailing instances from the faulty region
	}{
		{"first", insts[0:40], 0},
		{"overlapping", insts[20:70], 0},
		{"repeated-identical", insts[20:70], 0},
		{"disjoint", insts[80:120], 0},
		{"empty", nil, 0},
		{"probe-faulting", append(slices.Clone(insts[60:100]), bad...), len(bad)},
		{"after-faults", insts[0:120], 0},
	} {
		distinct := map[fingerprint.Gen1]bool{}
		for _, inst := range b.batch[:len(b.batch)-b.bad] {
			distinct[fps[inst]] = true
			union[fps[inst]] = true
		}
		skips := ft.ProbeSkips()
		apparent, err := ft.Record(b.batch)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if apparent != len(distinct) {
			t.Errorf("%s: apparent %d, want %d", b.name, apparent, len(distinct))
		}
		if got := ft.ProbeSkips() - skips; got != b.bad {
			t.Errorf("%s: %d skips, want %d", b.name, got, b.bad)
		}
		if got := ft.Fingerprints(); ft.Cumulative() != len(union) || !maps.Equal(got, union) {
			t.Errorf("%s: cumulative %d (%d fingerprints), want the union of %d",
				b.name, ft.Cumulative(), len(got), len(union))
		}
	}
	if ft.ProbeRetries() != 2*len(bad) {
		t.Errorf("probe retries %d, want %d", ft.ProbeRetries(), 2*len(bad))
	}
}

func TestEstimateScale(t *testing.T) {
	dc := smallWorld(t, 7)
	cfg := smallCfg()
	cfg.Launches = 3
	est, err := EstimateScale(dc, []string{"acct1", "acct2", "acct3"}, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if est.UniqueHosts <= 0 || est.UniqueHosts > dc.TrueHostCount() {
		t.Fatalf("estimate %d vs true %d", est.UniqueHosts, dc.TrueHostCount())
	}
	// Cumulative curve must be monotone and end at the estimate.
	for i := 1; i < len(est.CumulativeByLaunch); i++ {
		if est.CumulativeByLaunch[i] < est.CumulativeByLaunch[i-1] {
			t.Error("cumulative decreased")
		}
	}
	if est.CumulativeByLaunch[len(est.CumulativeByLaunch)-1] != est.UniqueHosts {
		t.Error("estimate != last cumulative")
	}
	// Multiple accounts must explore more than one account's base+helpers:
	// the estimate should reach a sizable share of the fleet.
	if est.UniqueHosts < dc.TrueHostCount()/2 {
		t.Errorf("exploration found only %d of %d hosts", est.UniqueHosts, dc.TrueHostCount())
	}
}

func TestEstimateScaleErrors(t *testing.T) {
	dc := smallWorld(t, 8)
	if _, err := EstimateScale(dc, nil, 2, smallCfg()); err == nil {
		t.Error("no accounts accepted")
	}
	if _, err := EstimateScale(dc, []string{"a"}, 0, smallCfg()); err == nil {
		t.Error("zero services accepted")
	}
}

func TestCoverageString(t *testing.T) {
	c := Coverage{VictimTotal: 10, VictimCovered: 5, SharedHosts: 3}
	if c.Fraction() != 0.5 {
		t.Errorf("fraction = %v", c.Fraction())
	}
	if c.String() == "" {
		t.Error("empty string")
	}
	var zero Coverage
	if zero.Fraction() != 0 {
		t.Error("zero coverage fraction")
	}
}

func TestChapmanEstimator(t *testing.T) {
	// Textbook example: 30 tagged, 40 in the recapture sample, 12 tagged
	// among them → N̂ = 31·41/13 − 1 ≈ 96.8.
	got := chapman(30, 40, 12)
	if got < 96 || got > 98 {
		t.Errorf("chapman(30,40,12) = %v, want ~96.8", got)
	}
}

func TestEstimateScaleChapman(t *testing.T) {
	dc := smallWorld(t, 9)
	cfg := smallCfg()
	est, err := EstimateScale(dc, []string{"a1", "a2", "a3"}, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if est.ChapmanEstimate == 0 {
		t.Fatal("no recapture overlap; Chapman estimate missing")
	}
	// The point estimate must be at least the observed lower bound and at
	// most a modest multiple of the true fleet (it only sees the reachable
	// portion).
	if est.ChapmanEstimate < float64(est.UniqueHosts)*0.95 {
		t.Errorf("Chapman %v below the observed count %d", est.ChapmanEstimate, est.UniqueHosts)
	}
	if est.ChapmanEstimate > float64(dc.TrueHostCount())*1.5 {
		t.Errorf("Chapman %v wildly above the true fleet %d", est.ChapmanEstimate, dc.TrueHostCount())
	}
}
