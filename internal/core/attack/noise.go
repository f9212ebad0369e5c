package attack

import (
	"time"

	"eaao/internal/core/covert"
	"eaao/internal/faas"
	"eaao/internal/pricing"
)

// This file is the campaign's noise-hardening engine: the contention-aware
// verification ladder a campaign climbs when background-tenant load
// (faas.TrafficModel) corrupts its covert channels. The quiet-world pipeline
// is untouched — Config.NoiseHardened() false never reaches this code — and
// everything the ladder spends is metered to the CampaignStats noise ledger,
// so the noisesweep experiment can price "surviving the living cloud"
// separately from the attack itself.
//
// The ladder, per Verify call:
//
//  1. Calibrate once: a footprint probe samples each channel's background
//     rate in the live world and re-derives the vote thresholds
//     (covert.Tester.Calibrated).
//  2. Measure, watching margin health: a pass where too many CTest verdicts
//     hover near the threshold (TestEvent.MinMargin < MarginFloor) is
//     unhealthy.
//  3. Escalate on unhealthy passes: quarantine persistently noisy footprint
//     instances, then raise the majority-vote budget, then swap to the
//     load-robust fallback channel; accept when the pass is healthy or the
//     ladder is spent.

// lowMarginTrip is the fraction of low-margin tests in one verification pass
// that marks the pass unhealthy and triggers the escalation ladder.
const lowMarginTrip = 0.25

// priorDisagreeTrip is the fraction of the fingerprint-predicted co-located
// victims a pass must covert-confirm to count as healthy. Margins alone miss
// total channel collapse: a dead channel votes every pair decisively
// negative, which looks exactly like decisive separation. Boot-time identity
// is load-immune, so confirming under half of what the fingerprints predict
// means the channel — not the co-location — failed, and the ladder climbs.
const priorDisagreeTrip = 0.5

// quarantineSampleRounds is the solo-round sample size of the noisy-host
// probe: enough to tell a host pinned at the LLC noise cap from a typically
// busy one, small enough to stay a negligible fraction of verification cost.
const quarantineSampleRounds = 24

// verifyHardened is Verify's noise-hardened path: measure, and re-measure up
// the escalation ladder while margins are collapsing. Only the accepted
// (final) pass is folded into the score ledger; the extra passes' wall time
// is attributed to the noise ledger.
func (c *Campaign) verifyHardened(victims []*faas.Instance) (Coverage, []*faas.Instance, error) {
	c.ensureCalibrated()
	var cov Coverage
	var spies []*faas.Instance
	for attempt := 0; ; attempt++ {
		c.passTests, c.passLow = 0, 0
		start := c.sched.Now()
		var err error
		cov, spies, err = c.measure(victims)
		if err != nil {
			return Coverage{}, nil, err
		}
		if attempt > 0 {
			c.noiseAttribute(c.sched.Now().Sub(start))
		}
		if (c.passHealthy() && priorAgrees(cov)) || !c.escalate() {
			break
		}
	}
	c.scorePass(cov)
	return cov, spies, nil
}

// priorAgrees reports whether the pass's covert confirmations kept up with
// the load-immune fingerprint prior (see priorDisagreeTrip).
func priorAgrees(cov Coverage) bool {
	if cov.FingerprintPredicted == 0 {
		return true
	}
	return float64(cov.VictimCovered) >= priorDisagreeTrip*float64(cov.FingerprintPredicted)
}

// passHealthy reports whether the verification pass that just ran cleared
// the margin health bar.
func (c *Campaign) passHealthy() bool {
	if c.cfg.MarginFloor <= 0 || c.passTests == 0 {
		return true
	}
	return float64(c.passLow) <= lowMarginTrip*float64(c.passTests)
}

// escalate climbs one rung of the ladder and reports whether a re-pass is
// worth running. The quarantine rung runs on passes the margin signal flagged
// — it targets localized noise, a few hosts whose channel disagrees with an
// otherwise-working world, and strikes need consecutive confirmation. A pass
// flagged only by the fingerprint prior is a global channel collapse;
// striking residents there would just delete the footprint the fallback
// channel is about to need. The rungs themselves are vote-budget raises up
// to MaxVoteBudget, then the one-shot fallback-channel swap.
func (c *Campaign) escalate() bool {
	if c.cfg.QuarantineAfter > 0 && !c.passHealthy() {
		c.quarantineNoisy()
	}
	cur := c.Tester().Config().VoteBudget
	next := cur + 2
	if next < 3 {
		next = 3
	}
	if t, ok := c.tester.(*covert.Tester); ok && next <= c.cfg.MaxVoteBudget {
		c.SetTester(t.Rebudget(next))
		c.stats.NoiseEscalations++
		return true
	}
	if c.fallback != nil && !c.onFallback {
		c.onFallback = true
		c.stats.ChannelFallbacks++
		c.SetTester(c.fallbackRunner())
		return true
	}
	return false
}

// ensureCalibrated performs the one-shot live-world calibration of the
// campaign's starting channel. A world too noisy to calibrate (every
// channel's background at separation-killing levels) keeps the quiet-world
// constants — the ladder above still gets its chance.
func (c *Campaign) ensureCalibrated() {
	if c.calibrated {
		return
	}
	c.calibrated = true
	if c.cfg.CalibrationRounds <= 0 || len(c.res.Live) == 0 {
		return
	}
	if r, wall, ok := c.tryCalibrate(c.cfg.Channel); ok {
		c.SetTester(r)
		c.stats.Calibrations++
		c.noiseHold(wall)
	}
}

// fallbackRunner returns the runner for the ladder's channel swap:
// calibrated against the live world when calibration is configured and
// possible, otherwise the fallback channel's stock runner NewCampaign built.
func (c *Campaign) fallbackRunner() covert.Runner {
	if c.cfg.CalibrationRounds > 0 && len(c.res.Live) > 0 {
		if r, wall, ok := c.tryCalibrate(c.cfg.FallbackChannel); ok {
			c.stats.Calibrations++
			c.noiseHold(wall)
			return r
		}
	}
	return c.fallback
}

// tryCalibrate calibrates the named channel's tester on the campaign's probe
// (the first live footprint instance) and returns it plus the virtual wall
// the sampling is worth — sampleRounds at the channel's per-round pace.
func (c *Campaign) tryCalibrate(name string) (covert.Runner, time.Duration, bool) {
	t, err := covert.RunnerFor(name, c.sched, c.cfg.VoteBudget)
	if err != nil {
		return nil, 0, false
	}
	r, err := t.Calibrated(c.res.Live[0], c.cfg.CalibrationRounds)
	if err != nil {
		return nil, 0, false
	}
	cfg := r.Config()
	wall := time.Duration(float64(cfg.TestDuration) * float64(c.cfg.CalibrationRounds) / float64(cfg.Rounds))
	return r, wall, true
}

// quarantineNoisy solo-samples every live footprint instance through the
// current channel and strikes the ones whose background (another tenant
// pressuring every round) or dead-read (the channel dropping the instance's
// own unit) rate clears NoisyHostBar. QuarantineAfter consecutive strikes
// exclude the instance from verification: its host's channel is unreliable
// enough that its verdicts are spending budget to produce noise. The solo
// sampling reads one channel, so it runs only on a single-channel tester
// (Validate rejects quarantine on the combined channel).
func (c *Campaign) quarantineNoisy() {
	t, ok := c.tester.(*covert.Tester)
	if !ok || len(t.Channels()) != 1 {
		return
	}
	res := t.Config().Resource
	if c.strikes == nil {
		c.strikes = make(map[*faas.Instance]int)
		c.quarantined = make(map[*faas.Instance]bool)
	}
	single := make([]*faas.Instance, 1)
	// A lone instance observes itself (1): ≥2 units is background, 0 a dead
	// read.
	var noisy, dead [1]int
	bar := c.cfg.NoisyHostBar * quarantineSampleRounds
	for _, inst := range c.res.Live {
		if c.quarantined[inst] {
			continue
		}
		single[0] = inst
		if err := faas.ContentionRounds(res, single, quarantineSampleRounds, 2, noisy[:], dead[:]); err != nil {
			continue
		}
		if float64(noisy[0]) >= bar || float64(dead[0]) >= bar {
			c.strikes[inst]++
			if c.strikes[inst] >= c.cfg.QuarantineAfter {
				c.quarantined[inst] = true
				c.stats.Quarantined++
			}
		} else {
			delete(c.strikes, inst)
		}
	}
}

// liveForVerify returns the live footprint minus quarantined instances. With
// nothing quarantined it returns the result slice untouched — the
// quiet-world path never pays a copy.
func (c *Campaign) liveForVerify() []*faas.Instance {
	if len(c.quarantined) == 0 {
		return c.res.Live
	}
	out := make([]*faas.Instance, 0, len(c.res.Live))
	for _, inst := range c.res.Live {
		if !c.quarantined[inst] {
			out = append(out, inst)
		}
	}
	return out
}

// noiseHold advances the clock for noise-hardening activity that takes wall
// time of its own (calibration sampling, congestion backoff) and attributes
// the resident footprint's holding cost to the noise ledger.
func (c *Campaign) noiseHold(wait time.Duration) {
	if wait <= 0 {
		return
	}
	v, g := c.residentUsage(wait)
	c.sched.Advance(wait)
	c.stats.NoiseWall += wait
	c.stats.NoiseVCPUSeconds += v
	c.stats.NoiseGBSeconds += g
	c.stats.NoiseUSD += pricing.CloudRunRates().Cost(v, g)
}

// noiseAttribute prices wall time that already elapsed on the clock (an
// escalated re-verification pass) without advancing it again. Same
// convention as the fault ledger: the dollars flow through the ordinary bill
// via lazy accrual, this singles out the share a quiet world would not have
// paid.
func (c *Campaign) noiseAttribute(wall time.Duration) {
	if wall <= 0 {
		return
	}
	v, g := c.residentUsage(wall)
	c.stats.NoiseWall += wall
	c.stats.NoiseVCPUSeconds += v
	c.stats.NoiseGBSeconds += g
	c.stats.NoiseUSD += pricing.CloudRunRates().Cost(v, g)
}
