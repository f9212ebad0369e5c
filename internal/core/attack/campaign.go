package attack

import (
	"errors"
	"fmt"
	"time"

	"eaao/internal/core/covert"
	"eaao/internal/faas"
	"eaao/internal/pricing"
	"eaao/internal/randx"
	"eaao/internal/sandbox"
	"eaao/internal/simtime"
)

// Campaign is the staged attack pipeline of §5.2:
//
//	launch → fingerprint → verify → score
//
// A LaunchStrategy drives the launch stage through a CampaignSink; the
// engine fingerprints every wave into the campaign footprint as it lands
// (the fingerprint stage rides inside LaunchWave, exactly as the paper's
// tooling measures each batch while it is connected); Verify runs the §4.3
// covert-channel verification of the resident footprint against a victim
// set; and the CampaignStats ledger prices every stage as it happens.
//
// The engine adds no platform interactions beyond the ones the strategy
// emits — no RNG draws, no clock advances — so driving NaiveStrategy or
// OptimizedStrategy through a Campaign reproduces the historical pre-engine
// launch loops byte for byte (pinned by the legacyNaive/legacyOptimized
// equivalence tests).
type Campaign struct {
	acct     *faas.Account
	cfg      Config
	gen      sandbox.Gen
	strategy LaunchStrategy
	sched    *simtime.Scheduler

	res    *CampaignResult
	stats  CampaignStats
	tester covert.Runner
	// fallback is the stock runner of Config.FallbackChannel, nil without
	// one: the noise ladder's channel swap when calibration is off or fails.
	fallback *covert.Tester
	// billStart and startedAt are the account bill and the clock when the
	// launch stage began, which the launch-stage ledger is measured from.
	billStart faas.Bill
	startedAt simtime.Time
	// services are the attacker services deployed through the sink, tracked
	// so retry backoff can attribute the resident footprint's holding cost
	// to the fault ledger.
	services []*faas.Service

	// Noise-hardening state (noise.go). calibrated latches the one-shot
	// live-world calibration; onFallback marks the ladder's channel swap as
	// spent; strikes and quarantined implement the noisy-host ladder; and
	// passTests/passLow are the margin-health window of the verification
	// pass currently running.
	calibrated  bool
	onFallback  bool
	strikes     map[*faas.Instance]int
	quarantined map[*faas.Instance]bool
	passTests   int
	passLow     int
}

// NewCampaign validates the configuration and binds a strategy to an
// attacker account. The campaign's services run in the given sandbox
// generation.
func NewCampaign(acct *faas.Account, cfg Config, gen sandbox.Gen, strategy LaunchStrategy) (*Campaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if strategy == nil {
		return nil, fmt.Errorf("attack: campaign needs a strategy")
	}
	c := &Campaign{
		acct:     acct,
		cfg:      cfg,
		gen:      gen,
		strategy: strategy,
		sched:    acct.DataCenter().Scheduler(),
	}
	c.stats.Region = acct.DataCenter().Region()
	// Building a runner draws no randomness and advances no clock.
	r, err := covert.RunnerFor(cfg.Channel, c.sched, cfg.VoteBudget)
	if err != nil {
		return nil, err
	}
	c.SetTester(r)
	if cfg.FallbackChannel != "" {
		if c.fallback, err = covert.RunnerFor(cfg.FallbackChannel, c.sched, cfg.VoteBudget); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Launch runs the launch+fingerprint stages: the strategy emits waves
// through the engine's sink until it decides the footprint is built. It can
// run at most once per campaign.
func (c *Campaign) Launch() (*CampaignResult, error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	// The strategy RNG derives from the world seed plus the campaign
	// identity: deterministic per seed, independent across accounts and
	// strategies, and — crucially — disjoint from every platform stream, so
	// strategies that draw from it cannot disturb placement randomness.
	rng := randx.New(randx.DeriveSeed(c.acct.DataCenter().Platform().Seed(),
		"attack-campaign", c.acct.ID(), c.strategy.Name()))
	if err := c.strategy.Launch(campaignSink{c}, c.acct, c.cfg, rng); err != nil {
		return nil, err
	}
	c.end()
	return c.res, nil
}

// begin opens the launch stage; end closes it and prices it. A fleet
// campaign drives its shards' rounds between the two.
func (c *Campaign) begin() error {
	if c.res != nil {
		return fmt.Errorf("attack: campaign already launched")
	}
	c.res = &CampaignResult{Footprint: NewFootprintTracker(c.cfg.Precision)}
	c.res.Footprint.SetProbeRetryBudget(c.cfg.ProbeRetryBudget)
	c.stats.Strategy = c.strategy.Name()
	c.billStart = c.acct.Bill()
	c.startedAt = c.sched.Now()
	return nil
}

func (c *Campaign) end() {
	c.stats.LiveInstances = len(c.res.Live)
	c.stats.ApparentHosts = c.res.Footprint.Cumulative()
	c.stats.LaunchWall = c.sched.Now().Sub(c.startedAt)
	c.stats.ProbeRetries += c.res.Footprint.ProbeRetries()
	c.stats.ProbeSkips += c.res.Footprint.ProbeSkips()
	bill := c.acct.Bill()
	c.stats.VCPUSeconds = bill.VCPUSeconds - c.billStart.VCPUSeconds
	c.stats.GBSeconds = bill.GBSeconds - c.billStart.GBSeconds
	c.stats.USD = pricing.CloudRunRates().Cost(c.stats.VCPUSeconds, c.stats.GBSeconds)
}

// Result returns the launch-stage outcome, or nil before Launch.
func (c *Campaign) Result() *CampaignResult { return c.res }

// Stats returns a snapshot of the per-stage cost/coverage ledger.
func (c *Campaign) Stats() CampaignStats {
	st := c.stats
	st.PerChannel = append([]ChannelCost(nil), st.PerChannel...)
	return st
}

// Tester returns the campaign's covert-channel runner: the one NewCampaign
// built from cfg.Channel (by default the paper's single-channel RNG tester),
// or the last one SetTester installed. Every CTest run through it — by
// Verify or by the caller directly — is charged to the campaign's verify
// stage with its channel label.
func (c *Campaign) Tester() covert.Runner { return c.tester }

// SetTester replaces the campaign's covert runner (e.g. with a calibrated,
// memory-bus, or majority-combined tester). The campaign takes over cost
// accounting: the runner's sink is pointed at the campaign, which forwards
// every event to the stats ledger (and tracks margin health for the noise
// ladder).
func (c *Campaign) SetTester(t covert.Runner) {
	c.tester = t
	t.SetSink(c)
}

// ObserveTest implements covert.Sink: every CTest the campaign's tester runs
// is forwarded to the stats ledger, and its verdict margin is scored against
// the noise-hardening health bar.
func (c *Campaign) ObserveTest(ev covert.TestEvent) {
	c.stats.ObserveTest(ev)
	c.passTests++
	if c.cfg.MarginFloor > 0 && ev.MinMargin < c.cfg.MarginFloor {
		c.passLow++
		c.stats.LowMarginTests++
	}
}

// Verify runs the verify+score stages against a victim instance set: the
// §4.3 scalable methodology verifies the campaign's live footprint against
// the victims, and the outcome is folded into the stats ledger. It returns
// the coverage plus the verified co-located attacker instances (the spies
// for extraction and re-attack targeting). Verify may run repeatedly, e.g.
// once per victim configuration, sharing one tester across calls exactly as
// the paper's per-day measurement sessions do.
func (c *Campaign) Verify(victims []*faas.Instance) (Coverage, []*faas.Instance, error) {
	if c.res == nil {
		return Coverage{}, nil, fmt.Errorf("attack: Verify before Launch")
	}
	if c.cfg.NoiseHardened() {
		return c.verifyHardened(victims)
	}
	cov, spies, err := c.measure(victims)
	if err != nil {
		return Coverage{}, nil, err
	}
	c.scorePass(cov)
	return cov, spies, nil
}

// measure runs one verification pass over the (non-quarantined) live
// footprint and meters its probe-fault recovery; folding the coverage into
// the score ledger is the caller's job, so the hardened path can re-pass
// without double-counting victims.
func (c *Campaign) measure(victims []*faas.Instance) (Coverage, []*faas.Instance, error) {
	cov, spies, err := MeasureCoverage(c.Tester(), c.liveForVerify(), victims, CoverageOpts{
		Precision:        c.cfg.Precision,
		ProbeRetryBudget: c.cfg.ProbeRetryBudget,
	})
	if err != nil {
		return Coverage{}, nil, err
	}
	c.stats.ProbeRetries += cov.Faults.ProbeRetries
	c.stats.ProbeSkips += cov.Faults.AttackersSkipped + cov.Faults.VictimsSkipped
	return cov, spies, nil
}

// scorePass folds one accepted verification pass into the score ledger.
func (c *Campaign) scorePass(cov Coverage) {
	c.stats.Verifications++
	c.stats.VictimInstances += cov.VictimTotal
	c.stats.VictimsCovered += cov.VictimCovered
}

// retryHold advances the clock for one launch-retry backoff and attributes
// the resident footprint's holding cost during the wait to the fault ledger.
// The real dollars flow through the launch-stage bill automatically (the
// platform's lazy accrual charges connected instances for the extra wall
// time); FaultVCPUSeconds/FaultUSD single out the share a fault-free run
// would not have paid.
func (c *Campaign) retryHold(wait time.Duration) {
	v, g := c.residentUsage(wait)
	c.sched.Advance(wait)
	c.stats.RetryBackoffWall += wait
	c.stats.FaultVCPUSeconds += v
	c.stats.FaultGBSeconds += g
	c.stats.FaultUSD += pricing.CloudRunRates().Cost(v, g)
}

// residentUsage returns the billable usage the resident footprint accrues
// over a wall-time span (the attribution quantum both the fault and noise
// ledgers price holds with).
func (c *Campaign) residentUsage(wait time.Duration) (vcpuSecs, gbSecs float64) {
	secs := wait.Seconds()
	for _, svc := range c.services {
		n := float64(len(svc.ActiveInstances()))
		size := svc.Size()
		vcpuSecs += n * size.VCPU * secs
		gbSecs += n * size.MemoryGB * secs
	}
	return vcpuSecs, gbSecs
}

// campaignSink is the engine's CampaignSink implementation, bound to one
// running campaign.
type campaignSink struct{ c *Campaign }

// Deploy implements CampaignSink.
func (s campaignSink) Deploy(name string) *faas.Service {
	svc := s.c.acct.DeployService(name, faas.ServiceConfig{Gen: s.c.gen})
	s.c.services = append(s.c.services, svc)
	return svc
}

// LaunchWave implements CampaignSink: launch, fingerprint, record. Waves
// rejected with a transient faas.ErrLaunchFault are re-issued up to
// Config.LaunchRetries times with exponential backoff; any other error (and
// fault exhaustion) propagates to the strategy.
func (s campaignSink) LaunchWave(svc *faas.Service, launchID int) (Wave, error) {
	c := s.c
	insts, err := svc.Launch(c.cfg.InstancesPerLaunch)
	for attempt := 0; err != nil && errors.Is(err, faas.ErrLaunchFault) && attempt < c.cfg.LaunchRetries; attempt++ {
		c.stats.LaunchRetries++
		if cb := c.cfg.CongestionBackoff; cb > 0 {
			// Noise-hardened campaigns interpret a rejection as the platform
			// shedding load and back off extra before the retry cadence.
			c.stats.CongestionBackoffs++
			c.noiseHold(cb)
		}
		if wait := c.cfg.RetryBackoff << attempt; wait > 0 {
			c.retryHold(wait)
		}
		insts, err = svc.Launch(c.cfg.InstancesPerLaunch)
	}
	if err != nil {
		return Wave{}, err
	}
	apparent, err := c.res.Footprint.Record(insts)
	if err != nil {
		return Wave{}, err
	}
	w := Wave{
		Service:    svc.Name(),
		LaunchID:   launchID,
		Instances:  insts,
		Apparent:   apparent,
		Cumulative: c.res.Footprint.Cumulative(),
	}
	c.res.Records = append(c.res.Records, LaunchRecord{
		Service:    w.Service,
		LaunchID:   w.LaunchID,
		At:         c.sched.Now(),
		Apparent:   w.Apparent,
		Cumulative: w.Cumulative,
	})
	c.stats.Waves++
	c.stats.InstancesLaunched += len(insts)
	c.stats.FingerprintSamples += len(insts)
	return w, nil
}

// Keep implements CampaignSink.
func (s campaignSink) Keep(insts []*faas.Instance) {
	s.c.res.Live = append(s.c.res.Live, insts...)
}

// Hold implements CampaignSink.
func (s campaignSink) Hold(d time.Duration) {
	s.c.sched.Advance(d)
}

// Footprint implements CampaignSink.
func (s campaignSink) Footprint() *FootprintTracker { return s.c.res.Footprint }
