package attack

import (
	"testing"
	"time"

	"eaao/internal/core/covert"
	"eaao/internal/faas"
	"eaao/internal/sandbox"
)

// loadedWorld is smallWorld with background traffic at the given utilization
// target.
func loadedWorld(t *testing.T, seed uint64, util float64) *faas.DataCenter {
	t.Helper()
	p := faas.USEast1Profile()
	p.Name = "t"
	p.NumHosts = 200
	p.PlacementGroups = 4
	p.BasePoolSize = 40
	p.AccountHelperPool = 90
	p.ServiceHelperSize = 70
	p.ServiceHelperFresh = 8
	p.Traffic = faas.DefaultTrafficModel(120, util)
	dc := faas.MustPlatform(seed, p).MustRegion("t")
	dc.Platform().Scheduler().Advance(2 * time.Hour) // warm the bystanders up
	return dc
}

// runNoiseCampaign launches a small campaign on the given world and verifies
// it against a fresh victim set.
func runNoiseCampaign(t *testing.T, dc *faas.DataCenter, cfg Config) (Coverage, CampaignStats) {
	t.Helper()
	c, err := NewCampaign(dc.Account("attacker"), cfg, sandbox.Gen1, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch(); err != nil {
		t.Fatal(err)
	}
	vic, err := dc.Account("victim").DeployService("v", faas.ServiceConfig{}).Launch(40)
	if err != nil {
		t.Fatal(err)
	}
	cov, _, err := c.Verify(vic)
	if err != nil {
		t.Fatal(err)
	}
	return cov, c.Stats()
}

func TestNoiseConfigValidate(t *testing.T) {
	if DefaultConfig().NoiseHardened() {
		t.Error("default config claims noise hardening")
	}
	if !DefaultConfig().WithNoiseRecovery().NoiseHardened() {
		t.Error("hardened config denies noise hardening")
	}
	if err := DefaultConfig().WithNoiseRecovery().Validate(); err != nil {
		t.Errorf("hardened config invalid: %v", err)
	}
	// The CLI's noise preset (fault budgets plus the ladder) validates on
	// every single channel; quarantine samples one channel, so combined is
	// rejected.
	for _, ch := range []string{"rng", "llc", "membus", "combined"} {
		cfg := DefaultConfig().WithFaultRecovery().WithNoiseRecovery()
		cfg.Channel = ch
		if err := cfg.Validate(); (err == nil) != (ch != "combined") {
			t.Errorf("noise preset on %s: Validate() = %v", ch, err)
		}
	}
	for _, mod := range []func(*Config){
		func(c *Config) { c.MarginFloor = 1.5 },
		func(c *Config) { c.NoisyHostBar = -0.1 },
		func(c *Config) { c.FallbackChannel = "hyperlane" },
		func(c *Config) { c.CalibrationRounds = -1 },
		func(c *Config) { c.CongestionBackoff = -time.Second },
		func(c *Config) { c.QuarantineAfter = 1 },
		func(c *Config) { c.MaxVoteBudget = 2 },
		func(c *Config) { c.Channel, c.QuarantineAfter, c.NoisyHostBar = "combined", 1, 0.5 },
	} {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad noise config validated: %+v", cfg)
		}
	}
}

// TestHardenedQuietWorldStaysAccurate pins the baseline: on a quiet world
// the hardened campaign calibrates once, never needs the ladder, and covers
// exactly what the unhardened campaign covers.
func TestHardenedQuietWorldStaysAccurate(t *testing.T) {
	cfg := smallCfg()
	cfg.Channel = "llc"
	covBase, _ := runNoiseCampaign(t, smallWorld(t, 61), cfg)
	covHard, st := runNoiseCampaign(t, smallWorld(t, 61), hardenNoiseChannel(cfg))
	if covHard.VictimCovered != covBase.VictimCovered || covHard.VictimTotal != covBase.VictimTotal {
		t.Errorf("quiet-world coverage: hardened %d/%d vs unhardened %d/%d",
			covHard.VictimCovered, covHard.VictimTotal, covBase.VictimCovered, covBase.VictimTotal)
	}
	if st.Calibrations != 1 {
		t.Errorf("Calibrations = %d, want 1", st.Calibrations)
	}
	if st.NoiseEscalations != 0 || st.ChannelFallbacks != 0 || st.Quarantined != 0 {
		t.Errorf("quiet world climbed the ladder: %+v", st)
	}
	if !st.NoiseHardening() {
		t.Error("hardened run metered no noise activity (calibration should count)")
	}
}

// hardenNoiseChannel is the noise preset minus congestion backoff, so
// quiet-world launch paths stay comparable.
func hardenNoiseChannel(cfg Config) Config {
	out := cfg.WithNoiseRecovery()
	out.CongestionBackoff = 0
	return out
}

// TestHardenedBeatsUnhardenedUnderLoad is the tentpole's attack-side claim:
// on a saturated world the LLC channel degrades, and the hardened campaign —
// calibrating, escalating the vote budget, falling back to the RNG — retains
// coverage the unhardened campaign loses, pricing the adaptation into the
// noise ledger.
func TestHardenedBeatsUnhardenedUnderLoad(t *testing.T) {
	// Both variants carry fault-retry budgets — congestion sheds launches on
	// a saturated world — so the comparison isolates the noise ladder.
	cfg := smallCfg()
	cfg.Channel = "llc"
	cfg.LaunchRetries = 6
	cfg.RetryBackoff = 30 * time.Second
	covBase, stBase := runNoiseCampaign(t, loadedWorld(t, 63, 0.95), cfg)
	covHard, stHard := runNoiseCampaign(t, loadedWorld(t, 63, 0.95), hardenNoiseChannel(cfg))
	t.Logf("unhardened: %d/%d covered, %d low-margin", covBase.VictimCovered, covBase.VictimTotal, stBase.LowMarginTests)
	t.Logf("hardened:   %d/%d covered, %d calibrations, %d escalations, %d fallbacks, %d quarantined, $%.2f noise",
		covHard.VictimCovered, covHard.VictimTotal, stHard.Calibrations,
		stHard.NoiseEscalations, stHard.ChannelFallbacks, stHard.Quarantined, stHard.NoiseUSD)
	if covHard.VictimCovered < covBase.VictimCovered {
		t.Errorf("hardened covered %d/%d, unhardened %d/%d",
			covHard.VictimCovered, covHard.VictimTotal, covBase.VictimCovered, covBase.VictimTotal)
	}
	if !stHard.NoiseHardening() {
		t.Error("hardened campaign metered no noise activity under saturation")
	}
	if stHard.Calibrations == 0 {
		t.Error("hardened campaign never calibrated")
	}
	if stBase.NoiseHardening() {
		t.Errorf("unhardened campaign metered noise activity: %+v", stBase)
	}
	// Margin health is observable either way — only the hardened config
	// scores it.
	if stBase.LowMarginTests != 0 {
		t.Errorf("unhardened campaign scored %d low-margin tests with MarginFloor 0", stBase.LowMarginTests)
	}
}

// TestUncalibratedFallbackUsesStockRunner pins the ladder's channel swap
// with calibration off: on a saturated world the LLC channel collapses, the
// campaign swaps to the stock RNG runner NewCampaign built, and that runner's
// CTests land in the verify ledger under its channel.
func TestUncalibratedFallbackUsesStockRunner(t *testing.T) {
	cfg := hardenNoiseChannel(smallCfg())
	cfg.Channel = "llc"
	cfg.LaunchRetries = 6
	cfg.RetryBackoff = 30 * time.Second
	cfg.CalibrationRounds = 0
	cfg.MaxVoteBudget = 0
	dc := loadedWorld(t, 63, 0.95)
	c, err := NewCampaign(dc.Account("attacker"), cfg, sandbox.Gen1, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if c.fallback == nil || c.fallback.Config().Resource != faas.ResourceRNG {
		t.Fatalf("NewCampaign built fallback runner %v, want the stock rng runner", c.fallback)
	}
	if _, err := c.Launch(); err != nil {
		t.Fatal(err)
	}
	vic, err := dc.Account("victim").DeployService("v", faas.ServiceConfig{}).Launch(40)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Verify(vic); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ChannelFallbacks != 1 || st.Calibrations != 0 {
		t.Fatalf("fallbacks %d, calibrations %d; want 1 and 0", st.ChannelFallbacks, st.Calibrations)
	}
	if c.Tester() != covert.Runner(c.fallback) {
		t.Fatal("campaign did not swap to the runner NewCampaign built")
	}
	var rng int
	for _, cc := range st.PerChannel {
		if cc.Channel == "rng" {
			rng = cc.CTests
		}
	}
	if n := c.fallback.Stats().Tests; n == 0 || rng != n {
		t.Errorf("ledger charged %d rng CTests, fallback runner ran %d", rng, n)
	}
}

// TestCongestionBackoffMetered drives launches into a deliberately
// oversubscribed region: rejected waves retry with the extra congestion hold
// and the holds land in the noise ledger, not the fault ledger.
func TestCongestionBackoffMetered(t *testing.T) {
	p := faas.USEast1Profile()
	p.Name = "t"
	p.NumHosts = 120
	p.PlacementGroups = 3
	p.BasePoolSize = 30
	p.AccountHelperPool = 60
	p.ServiceHelperSize = 45
	p.ServiceHelperFresh = 5
	p.Traffic = faas.DefaultTrafficModel(80, 1.1)
	p.Traffic.CongestionKnee = 0.5
	p.Traffic.CongestionRejectRate = 0.5
	dc := faas.MustPlatform(67, p).MustRegion("t")
	dc.Platform().Scheduler().Advance(3 * time.Hour)

	cfg := smallCfg()
	cfg.LaunchRetries = 6
	cfg.RetryBackoff = 10 * time.Second
	cfg.CongestionBackoff = time.Minute
	c, err := NewCampaign(dc.Account("attacker"), cfg, sandbox.Gen1, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.LaunchRetries == 0 {
		t.Skip("no launch wave was rejected at this seed — congestion path unexercised")
	}
	if st.CongestionBackoffs != st.LaunchRetries {
		t.Errorf("CongestionBackoffs = %d, LaunchRetries = %d", st.CongestionBackoffs, st.LaunchRetries)
	}
	if st.NoiseWall < time.Duration(st.CongestionBackoffs)*time.Minute {
		t.Errorf("NoiseWall = %v for %d backoffs", st.NoiseWall, st.CongestionBackoffs)
	}
}

// TestQuarantineExcludesNoisyInstances forces the ladder to its quarantine
// rung with an aggressive bar: persistently unreliable footprint instances
// are struck off and verification proceeds without them. The world sits at
// moderate load — the margin-hover regime quarantine exists for. (Deeper
// saturation collapses the channel globally; those passes are flagged by
// the fingerprint prior and deliberately skip the quarantine rung.)
func TestQuarantineExcludesNoisyInstances(t *testing.T) {
	cfg := smallCfg()
	cfg.Channel = "llc"
	cfg.LaunchRetries = 6
	cfg.RetryBackoff = 30 * time.Second
	cfg = hardenNoiseChannel(cfg)
	cfg.NoisyHostBar = 0.05 // nearly every loaded host trips
	cfg.QuarantineAfter = 1
	cfg.MaxVoteBudget = 0 // skip budget rungs so unhealthy passes hit quarantine fast
	_, st := runNoiseCampaign(t, loadedWorld(t, 69, 0.55), cfg)
	if st.LowMarginTests == 0 {
		t.Skip("no low-margin tests at this seed — ladder unexercised")
	}
	if st.Quarantined == 0 {
		t.Error("aggressive bar quarantined nothing on a saturated world")
	}
}
