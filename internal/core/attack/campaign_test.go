package attack

import (
	"reflect"
	"strings"
	"testing"

	"eaao/internal/faas"
	"eaao/internal/sandbox"
)

// legacyNaive is a frozen copy of the pre-engine naive launch loop. The engine
// refactor promises byte-identical behavior; this copy pins the old operation
// sequence so the equivalence tests below keep meaning something even as the
// engine evolves.
func legacyNaive(acct *faas.Account, cfg Config, gen sandbox.Gen) (*CampaignResult, error) {
	sched := acct.DataCenter().Scheduler()
	res := &CampaignResult{Footprint: NewFootprintTracker(cfg.Precision)}
	for _, name := range serviceNames("naive", cfg.Services) {
		svc := acct.DeployService(name, faas.ServiceConfig{Gen: gen})
		insts, err := svc.Launch(cfg.InstancesPerLaunch)
		if err != nil {
			return nil, err
		}
		apparent, err := res.Footprint.Record(insts)
		if err != nil {
			return nil, err
		}
		res.Records = append(res.Records, LaunchRecord{
			Service:    name,
			LaunchID:   1,
			At:         sched.Now(),
			Apparent:   apparent,
			Cumulative: res.Footprint.Cumulative(),
		})
		res.Live = append(res.Live, insts...)
	}
	return res, nil
}

// legacyOptimized is the frozen pre-engine optimized launch loop.
func legacyOptimized(acct *faas.Account, cfg Config, gen sandbox.Gen) (*CampaignResult, error) {
	sched := acct.DataCenter().Scheduler()
	res := &CampaignResult{Footprint: NewFootprintTracker(cfg.Precision)}
	names := serviceNames("opt", cfg.Services)
	services := make([]*faas.Service, len(names))
	for i, name := range names {
		services[i] = acct.DeployService(name, faas.ServiceConfig{Gen: gen})
	}
	for launch := 1; launch <= cfg.Launches; launch++ {
		last := launch == cfg.Launches
		for i, svc := range services {
			insts, err := svc.Launch(cfg.InstancesPerLaunch)
			if err != nil {
				return nil, err
			}
			apparent, err := res.Footprint.Record(insts)
			if err != nil {
				return nil, err
			}
			res.Records = append(res.Records, LaunchRecord{
				Service:    names[i],
				LaunchID:   launch,
				At:         sched.Now(),
				Apparent:   apparent,
				Cumulative: res.Footprint.Cumulative(),
			})
			if last {
				res.Live = append(res.Live, insts...)
			}
		}
		sched.Advance(cfg.HoldActive)
		if !last {
			for _, svc := range services {
				svc.Disconnect()
			}
			rest := cfg.Interval - cfg.HoldActive
			if rest > 0 {
				sched.Advance(rest)
			}
		}
	}
	return res, nil
}

// instanceIDs projects a live set onto stable identifiers for comparison.
func instanceIDs(insts []*faas.Instance) []string {
	out := make([]string, len(insts))
	for i, inst := range insts {
		out[i] = inst.ID()
	}
	return out
}

// assertSameCampaign compares two campaign results field by field: identical
// launch records (timestamps included), identical live-instance identities,
// identical footprints.
func assertSameCampaign(t *testing.T, legacy, engine *CampaignResult) {
	t.Helper()
	if !reflect.DeepEqual(legacy.Records, engine.Records) {
		t.Errorf("launch records diverge:\nlegacy: %+v\nengine: %+v", legacy.Records, engine.Records)
	}
	if got, want := instanceIDs(engine.Live), instanceIDs(legacy.Live); !reflect.DeepEqual(got, want) {
		t.Errorf("live sets diverge: engine %d instances, legacy %d", len(got), len(want))
	}
	if legacy.Footprint.Cumulative() != engine.Footprint.Cumulative() {
		t.Errorf("footprints diverge: legacy %d, engine %d",
			legacy.Footprint.Cumulative(), engine.Footprint.Cumulative())
	}
}

func TestEngineMatchesLegacyNaive(t *testing.T) {
	// Twin worlds from the same seed: one runs the frozen legacy loop, the
	// other drives NaiveStrategy through the engine.
	cfg := smallCfg()
	legacy, err := legacyNaive(smallWorld(t, 42).Account("attacker"), cfg, sandbox.Gen1)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := launchCampaign(smallWorld(t, 42).Account("attacker"), cfg, sandbox.Gen1, NaiveStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCampaign(t, legacy, engine)
}

func TestEngineMatchesLegacyOptimized(t *testing.T) {
	cfg := smallCfg()
	legacy, err := legacyOptimized(smallWorld(t, 42).Account("attacker"), cfg, sandbox.Gen1)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := launchCampaign(smallWorld(t, 42).Account("attacker"), cfg, sandbox.Gen1, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCampaign(t, legacy, engine)
}

func TestAdaptiveStopsWhenYieldSaturates(t *testing.T) {
	// In a world where helper unlocking saturates before the configured
	// launch budget, the adaptive strategy must spend fewer waves than the
	// optimized one while keeping (nearly) the same footprint.
	cfg := smallCfg()
	cfg.Services = 2
	cfg.Launches = 8
	optC, err := NewCampaign(smallWorld(t, 42).Account("attacker"), cfg, sandbox.Gen1, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := optC.Launch(); err != nil {
		t.Fatal(err)
	}
	adC, err := NewCampaign(smallWorld(t, 42).Account("attacker"), cfg, sandbox.Gen1, AdaptiveStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adC.Launch(); err != nil {
		t.Fatal(err)
	}
	opt, ad := optC.Stats(), adC.Stats()
	if ad.Waves >= opt.Waves {
		t.Errorf("adaptive did not stop early: %d waves vs optimized %d", ad.Waves, opt.Waves)
	}
	if ad.USD >= opt.USD {
		t.Errorf("adaptive cost $%.2f not below optimized $%.2f", ad.USD, opt.USD)
	}
	if ad.LiveInstances != cfg.Services*cfg.InstancesPerLaunch {
		t.Errorf("adaptive live = %d", ad.LiveInstances)
	}
	// Stopping must cost at most the yield floor per skipped round.
	if float64(ad.ApparentHosts) < 0.8*float64(opt.ApparentHosts) {
		t.Errorf("adaptive footprint %d lost too much vs optimized %d",
			ad.ApparentHosts, opt.ApparentHosts)
	}
}

func TestAdaptiveYieldFloorConfigurable(t *testing.T) {
	// A near-impossible yield floor (every round must double the footprint)
	// must cut the campaign well short of the configured budget, and always
	// at a round boundary.
	cfg := smallCfg()
	cfg.Launches = 8
	c, err := NewCampaign(smallWorld(t, 43).Account("attacker"), cfg, sandbox.Gen1,
		AdaptiveStrategy{MinYield: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch(); err != nil {
		t.Fatal(err)
	}
	got := c.Stats().Waves
	if got >= cfg.Launches*cfg.Services {
		t.Errorf("waves = %d, MinYield 1.0 did not stop early", got)
	}
	if got%cfg.Services != 0 {
		t.Errorf("waves = %d, not a whole round of %d services", got, cfg.Services)
	}
}

func TestStrategyByName(t *testing.T) {
	for name, want := range map[string]string{
		"naive": "naive", "optimized": "optimized", "opt": "optimized", "adaptive": "adaptive",
	} {
		s, err := StrategyByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != want {
			t.Errorf("StrategyByName(%q).Name() = %q, want %q", name, s.Name(), want)
		}
	}
	if _, err := StrategyByName("bogus"); err == nil {
		t.Error("unknown strategy resolved")
	}
	if len(Strategies()) != 3 {
		t.Errorf("Strategies() = %d entries", len(Strategies()))
	}
}

func TestCampaignMisuse(t *testing.T) {
	dc := smallWorld(t, 44)
	bad := smallCfg()
	bad.Services = 0
	if _, err := NewCampaign(dc.Account("a"), bad, sandbox.Gen1, NaiveStrategy{}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewCampaign(dc.Account("a"), smallCfg(), sandbox.Gen1, nil); err == nil {
		t.Error("nil strategy accepted")
	}
	c, err := NewCampaign(dc.Account("a"), smallCfg(), sandbox.Gen1, NaiveStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Verify(nil); err == nil {
		t.Error("Verify before Launch accepted")
	}
	if c.Result() != nil {
		t.Error("Result non-nil before Launch")
	}
	if _, err := c.Launch(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch(); err == nil {
		t.Error("second Launch accepted")
	}
}

func TestCampaignLedger(t *testing.T) {
	dc := smallWorld(t, 45)
	cfg := smallCfg()
	c, err := NewCampaign(dc.Account("attacker"), cfg, sandbox.Gen1, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Strategy != "optimized" {
		t.Errorf("strategy = %q", st.Strategy)
	}
	if want := cfg.Services * cfg.Launches; st.Waves != want {
		t.Errorf("waves = %d, want %d", st.Waves, want)
	}
	if want := cfg.Services * cfg.Launches * cfg.InstancesPerLaunch; st.InstancesLaunched != want {
		t.Errorf("instances = %d, want %d", st.InstancesLaunched, want)
	}
	if st.FingerprintSamples != st.InstancesLaunched {
		t.Errorf("samples %d != instances %d", st.FingerprintSamples, st.InstancesLaunched)
	}
	if st.LiveInstances != cfg.Services*cfg.InstancesPerLaunch {
		t.Errorf("live = %d", st.LiveInstances)
	}
	if st.ApparentHosts == 0 || st.VCPUSeconds <= 0 || st.USD <= 0 || st.LaunchWall <= 0 {
		t.Errorf("launch accounting incomplete: %+v", st)
	}
	if st.CTests != 0 || st.Verifications != 0 {
		t.Errorf("verify stage charged before any verification: %+v", st)
	}

	vic, err := dc.Account("victim").DeployService("v", faas.ServiceConfig{}).Launch(40)
	if err != nil {
		t.Fatal(err)
	}
	cov, _, err := c.Verify(vic)
	if err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Verifications != 1 {
		t.Errorf("verifications = %d", st.Verifications)
	}
	if st.CTests == 0 || st.CovertTime <= 0 {
		t.Errorf("CTests not metered: %+v", st)
	}
	if st.CovertInstanceTime < st.CovertTime {
		t.Error("per-instance channel time below serialized time")
	}
	if st.VictimInstances != cov.VictimTotal || st.VictimsCovered != cov.VictimCovered {
		t.Errorf("score stage %d/%d, coverage %d/%d",
			st.VictimsCovered, st.VictimInstances, cov.VictimCovered, cov.VictimTotal)
	}
	if got := st.CoverageFraction(); got != cov.Fraction() {
		t.Errorf("CoverageFraction = %v, coverage says %v", got, cov.Fraction())
	}
	for _, stage := range []string{"launch:", "fingerprint:", "verify:", "score:", "optimized"} {
		if !strings.Contains(st.String(), stage) {
			t.Errorf("ledger rendering missing %q:\n%s", stage, st.String())
		}
	}
}

// BenchmarkGen1Wave times one §5.2 launch wave at full scale: 800 Gen 1
// instances launched into a fresh us-east1 world, then fingerprinted into a
// footprint tracker. Building the world is untimed; the wave pays host
// materialization, placement, guest init and fingerprinting.
func BenchmarkGen1Wave(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dc := faas.MustPlatform(9, faas.USEast1Profile()).MustRegion(faas.USEast1)
		svc := dc.Account("attacker").DeployService("s", faas.ServiceConfig{})
		ft := NewFootprintTracker(cfg.Precision)
		b.StartTimer()
		insts, err := svc.Launch(cfg.InstancesPerLaunch)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ft.Record(insts); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRecordWaveAllocs(t *testing.T) {
	// The per-wave fingerprint path re-records mostly-known hosts; after the
	// first wave seeds the footprint map, steady-state re-recording must not
	// allocate.
	dc := smallWorld(t, 46)
	insts, err := dc.Account("a").DeployService("s", faas.ServiceConfig{}).Launch(200)
	if err != nil {
		t.Fatal(err)
	}
	ft := NewFootprintTracker(DefaultConfig().Precision)
	if _, err := ft.Record(insts); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := ft.Record(insts); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.5 {
		t.Errorf("steady-state Record allocates %.1f times per wave", avg)
	}
}
