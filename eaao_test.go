package eaao

// Integration tests through the public API: the full user journeys the
// README promises, exercised end to end.

import (
	"testing"
	"time"
)

func TestQuickstartJourney(t *testing.T) {
	pl := NewPlatform(2024, USEast1Profile())
	dc := pl.MustRegion(USEast1)
	svc := dc.Account("me").DeployService("probe", ServiceConfig{})
	insts, err := svc.Launch(50)
	if err != nil {
		t.Fatal(err)
	}

	items := make([]VerifyItem, len(insts))
	for i, inst := range insts {
		sample, err := CollectGen1(inst.MustGuest())
		if err != nil {
			t.Fatal(err)
		}
		fp := Gen1FromSample(sample, DefaultPrecision)
		items[i] = VerifyItem{Inst: inst, Fingerprint: fp.Key(), ConflictKey: fp.Model}
	}
	tester := NewCovertTester(pl.Scheduler())
	res, err := VerifyColocation(tester, items, DefaultVerifyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 || len(res.Clusters) > 50 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	total := 0
	for _, c := range res.Clusters {
		total += len(c)
	}
	if total != 50 {
		t.Errorf("clusters cover %d of 50 instances", total)
	}
}

func TestAttackJourney(t *testing.T) {
	pl := NewPlatform(7, USEast1Profile())
	dc := pl.MustRegion(USEast1)

	vic, err := dc.Account("victim").DeployService("login", ServiceConfig{Size: SizeSmall}).Launch(40)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultAttackConfig()
	cfg.Services = 3
	cfg.InstancesPerLaunch = 300
	cfg.Launches = 4
	camp, err := RunOptimizedAttack(dc.Account("attacker"), cfg, Gen1)
	if err != nil {
		t.Fatal(err)
	}
	tester := NewCovertTester(pl.Scheduler())
	cov, spies, err := MeasureCoverageDetail(tester, camp.Live, vic, cfg.Precision)
	if err != nil {
		t.Fatal(err)
	}
	if !cov.AtLeastOne {
		t.Fatal("optimized attack achieved no co-location")
	}
	if len(spies) == 0 {
		t.Fatal("no spies returned despite coverage")
	}

	// Extraction through the facade.
	spy := spies[0]
	spyHost, _ := spy.HostID()
	var target *Instance
	for _, v := range vic {
		if id, _ := v.HostID(); id == spyHost {
			target = v
			break
		}
	}
	if target == nil {
		t.Fatal("no victim on spy host")
	}
	secret := []bool{true, false, true, true, false, false, true, false}
	sched := ExtractionSchedule{
		Start:      pl.Now().Add(time.Second),
		SlotLength: 100 * time.Millisecond,
		Bits:       secret,
	}
	target.SetWorkload(sched.Activity())
	trace, err := MonitorExtraction(pl.Scheduler(), spy, sched, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if acc := trace.BitAccuracy(secret); acc < 0.99 {
		t.Errorf("extraction accuracy = %v", acc)
	}

	// Re-attack targeting through the facade.
	book := NewTargetBook(cfg.Precision)
	if err := book.RecordVictimHosts(spies); err != nil {
		t.Fatal(err)
	}
	if book.Size() == 0 {
		t.Error("empty target book")
	}
	focused, effort, err := book.Focus(camp.Live)
	if err != nil {
		t.Fatal(err)
	}
	if len(focused) == 0 || effort <= 0 || effort > 0.9 {
		t.Errorf("focus: %d instances, effort %v", len(focused), effort)
	}
}

func TestExperimentRegistryThroughFacade(t *testing.T) {
	exps := Experiments()
	if len(exps) != 28 {
		t.Fatalf("registry has %d experiments, want 28", len(exps))
	}
	res, err := RunExperiment("table1", ExperimentContext{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "table1" {
		t.Errorf("ran %q", res.ID)
	}
	if _, err := RunExperiment("nope", ExperimentContext{Seed: 42, Quick: true}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestPricingThroughFacade(t *testing.T) {
	r := CloudRunRates()
	if got := r.Cost(100, 50); got <= 0 {
		t.Errorf("cost = %v", got)
	}
}

func TestDeterminismThroughFacade(t *testing.T) {
	fps := func() []string {
		pl := NewPlatform(5, USWest1Profile())
		insts, err := pl.MustRegion(USWest1).Account("a").
			DeployService("s", ServiceConfig{}).Launch(30)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(insts))
		for i, inst := range insts {
			s, err := CollectGen1(inst.MustGuest())
			if err != nil {
				t.Fatal(err)
			}
			out[i] = Gen1FromSample(s, DefaultPrecision).String()
		}
		return out
	}
	a, b := fps(), fps()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different fingerprints at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestBackgroundTrafficThroughFacade(t *testing.T) {
	prof := USWest1Profile()
	prof.Traffic = DefaultTrafficModel(40, 0.6)
	pl := NewPlatform(7, prof)
	dc := pl.MustRegion(USWest1)
	dc.Scheduler().Advance(2 * time.Hour)
	st := dc.TrafficStats()
	if st.Tenants != 40 {
		t.Errorf("Tenants = %d, want 40", st.Tenants)
	}
	if st.LiveInstances == 0 || st.Utilization <= 0 {
		t.Errorf("warmed traffic world is idle: %+v", st)
	}
	// Same seed, same model → identical load trajectory.
	pl2 := NewPlatform(7, prof)
	pl2.MustRegion(USWest1).Scheduler().Advance(2 * time.Hour)
	if st2 := pl2.MustRegion(USWest1).TrafficStats(); st2 != st {
		t.Errorf("traffic diverged across identical builds: %+v vs %+v", st, st2)
	}
}

func TestMitigatedPlatformThroughFacade(t *testing.T) {
	prof := USEast1Profile()
	prof.Mitigations = Mitigations{TrapAndEmulateTSC: true, TSCScaling: true}
	pl := NewPlatform(9, prof)
	insts, err := pl.MustRegion(USEast1).Account("a").
		DeployService("s", ServiceConfig{}).Launch(30)
	if err != nil {
		t.Fatal(err)
	}
	// Same-host instances now produce different fingerprints: the defense
	// works through the public API too.
	byHost := make(map[HostID]map[string]bool)
	for _, inst := range insts {
		s, err := CollectGen1(inst.MustGuest())
		if err != nil {
			t.Fatal(err)
		}
		fp := Gen1FromSample(s, DefaultPrecision).String()
		id, _ := inst.HostID()
		if byHost[id] == nil {
			byHost[id] = map[string]bool{}
		}
		byHost[id][fp] = true
	}
	splits := 0
	for _, fps := range byHost {
		if len(fps) > 1 {
			splits++
		}
	}
	if splits == 0 {
		t.Error("mitigated platform still produces stable host fingerprints")
	}
}

func TestCampaignJourney(t *testing.T) {
	// The campaign-engine variant of the attack journey: pick a strategy by
	// its CLI name, run the staged pipeline, read the ledger.
	if got := len(AttackStrategies()); got != 3 {
		t.Fatalf("AttackStrategies() = %d entries", got)
	}
	strat, err := AttackStrategyByName("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AttackStrategyByName("nope"); err == nil {
		t.Error("unknown strategy resolved through the facade")
	}

	pl := NewPlatform(7, USEast1Profile())
	dc := pl.MustRegion(USEast1)
	vic, err := dc.Account("victim").DeployService("login", ServiceConfig{}).Launch(40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultAttackConfig()
	cfg.Services = 3
	cfg.InstancesPerLaunch = 300
	cfg.Launches = 4
	camp, err := NewAttackCampaign(dc.Account("attacker"), cfg, Gen1, strat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Launch(); err != nil {
		t.Fatal(err)
	}
	cov, spies, err := camp.Verify(vic)
	if err != nil {
		t.Fatal(err)
	}
	st := camp.Stats()
	if st.Strategy != "adaptive" || st.Waves == 0 || st.USD <= 0 {
		t.Errorf("ledger incomplete: %+v", st)
	}
	if !cov.AtLeastOne || len(spies) == 0 {
		t.Errorf("campaign found no co-location: %s", cov)
	}
	if st.CoverageFraction() != cov.Fraction() {
		t.Errorf("ledger coverage %v vs measured %v", st.CoverageFraction(), cov.Fraction())
	}
}
