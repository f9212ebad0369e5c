// Package attack implements the paper's instance-launching strategies and
// their evaluation metrics (§5.2):
//
//   - Strategy 1 (naive): launch many instances from cold services. The
//     instances land on the attacker account's base hosts only, so
//     co-location with a victim succeeds only when base pools accidentally
//     overlap.
//   - Strategy 2 (optimized): prime each attacker service into a
//     high-demand state by repeatedly launching a large instance count at a
//     short interval (e.g. 800 instances every 10 minutes, six times). The
//     load balancer spills the replacement instances onto helper hosts,
//     spreading the attacker across a large fraction of the data center at
//     negligible cost (instances idle between launches bill nothing).
//
// Both strategies are plugins of the campaign engine: a LaunchStrategy
// emits launch waves through a CampaignSink, and the staged Campaign
// pipeline (launch → fingerprint → verify → score) owns footprint tracking,
// covert verification, and the per-stage CampaignStats cost ledger. New
// launching behaviors (e.g. AdaptiveStrategy, which stops when marginal
// host yield dries up) are small strategy implementations, not forks of the
// launch loop.
//
// The package also provides fingerprint-based host-footprint tracking (the
// "apparent hosts" of §5.1) and victim-coverage measurement via verified
// co-location.
package attack

import (
	"errors"
	"fmt"
	"time"

	"eaao/internal/core/covert"
	"eaao/internal/core/fingerprint"
	"eaao/internal/faas"
	"eaao/internal/sandbox"
	"eaao/internal/simtime"
)

// Config parameterizes a launching campaign.
type Config struct {
	// Services is how many attacker services participate (paper: 6).
	Services int
	// InstancesPerLaunch is the scale-out target per launch (paper: 800).
	InstancesPerLaunch int
	// Launches is how many times each service is launched (paper: 6).
	Launches int
	// Interval is the pause between consecutive launches (paper: 10 min for
	// the optimized strategy; ≥ 45 min degenerates to naive/cold behavior).
	Interval time.Duration
	// HoldActive is how long each launch's instances stay connected for
	// measurements before being disconnected; this is what the attack pays
	// for (paper's overall cost ≈ $23–27 per data center).
	HoldActive time.Duration
	// Precision is the Gen 1 fingerprint rounding precision.
	Precision time.Duration

	// Fault-recovery budgets. All default to zero, which reproduces the
	// unhardened campaign: the first injected fault aborts or degrades the
	// run. Campaigns on a platform with a faas.FaultPlan set these to
	// self-heal, usually through WithFaultRecovery.

	// LaunchRetries is how many times a launch wave rejected with
	// faas.ErrLaunchFault is re-issued before the campaign gives up.
	LaunchRetries int
	// RetryBackoff is the wait before the first launch retry; it doubles on
	// every subsequent attempt of the same wave. The resident footprint
	// stays connected (and billing) through the wait — the fault ledger
	// attributes that spend.
	RetryBackoff time.Duration
	// VoteBudget is the covert.Config majority-vote repetition count used by
	// the campaign's default tester; 0 or 1 is the single-shot test.
	VoteBudget int
	// ProbeRetryBudget is how many times a fingerprint collection that hit a
	// probe fault is retried before the instance is skipped for the batch.
	// At 0 a probe fault propagates as an error instead.
	ProbeRetryBudget int

	// Channel selects the covert-channel primitive of the campaign's default
	// tester: "" or "rng" (the paper's RNG channel, byte-identical to builds
	// without the channel layer), "llc", "membus", or "combined" (majority
	// across all three). An explicit SetTester overrides it.
	Channel string

	// Noise-hardening budgets. All default to zero, which reproduces the
	// quiet-world campaign byte for byte. A campaign attacking a region with
	// background traffic (faas.TrafficModel) sets these to keep verification
	// reliable as bystander load corrupts the covert channels, usually
	// through WithNoiseRecovery; everything they spend is metered to the
	// CampaignStats noise ledger.

	// CalibrationRounds, when positive, re-derives the tester's vote
	// thresholds against the live world before the first verification: a
	// footprint probe samples each channel's background rate over this many
	// solo rounds (covert.CalibrateChannel) instead of trusting quiet-world
	// constants.
	CalibrationRounds int
	// MarginFloor is the CTest health bar: a test whose minimum verdict
	// margin (covert.TestEvent.MinMargin) falls below this fraction counts
	// as low-margin, and a verification pass with more than 25% low-margin
	// tests triggers the escalation ladder.
	MarginFloor float64
	// MaxVoteBudget caps the escalation ladder's majority-vote budget; 0
	// disables vote-budget escalation (the ladder goes straight to the
	// fallback channel). The first raise is to 3, so 1 and 2 are invalid.
	MaxVoteBudget int
	// FallbackChannel, when set, is the channel the campaign swaps to when
	// vote-budget escalation alone cannot restore margins — typically the
	// slow but load-robust "rng" after starting on the fast "llc".
	FallbackChannel string
	// QuarantineAfter and NoisyHostBar quarantine persistently unreliable
	// footprint instances: one whose solo background (or dead-read) rate is
	// at least NoisyHostBar on QuarantineAfter consecutive unhealthy passes
	// is excluded from verification. 0 disables quarantine; enabling it
	// needs a positive NoisyHostBar, since a zero bar strikes every instance,
	// and a single-channel Channel, since the solo sampling reads one channel.
	QuarantineAfter int
	NoisyHostBar    float64
	// CongestionBackoff, when positive, adds a noise-ledger hold before each
	// launch retry — the campaign backs off while the congested platform
	// sheds load instead of hammering it at the bare fault cadence.
	CongestionBackoff time.Duration
}

// DefaultConfig returns the paper's optimized-strategy parameters.
func DefaultConfig() Config {
	return Config{
		Services:           6,
		InstancesPerLaunch: 800,
		Launches:           6,
		Interval:           10 * time.Minute,
		HoldActive:         40 * time.Second,
		Precision:          fingerprint.DefaultPrecision,
	}
}

// WithFaultRecovery returns c with the standard fault-recovery budgets: four
// launch retries from a 30s backoff, a vote budget of 3 and a probe retry
// budget of 3 — the hardening the faultsweep experiment judges.
func (c Config) WithFaultRecovery() Config {
	c.LaunchRetries = 4
	c.RetryBackoff = 30 * time.Second
	c.VoteBudget = 3
	c.ProbeRetryBudget = 3
	return c
}

// WithNoiseRecovery returns c with the standard noise-hardening ladder:
// live-world threshold calibration, margin-health watching with vote-budget
// escalation and an RNG fallback, surgical quarantine of unreliable
// footprint instances, and congestion backoff — the hardening the noisesweep
// experiment judges. The quarantine rung samples one channel, so the result
// does not validate on the combined channel.
func (c Config) WithNoiseRecovery() Config {
	c.CalibrationRounds = 240
	c.MarginFloor = 0.08
	c.MaxVoteBudget = 5
	c.FallbackChannel = "rng"
	c.QuarantineAfter = 2
	c.NoisyHostBar = 0.4
	c.CongestionBackoff = 30 * time.Second
	return c
}

// Validate checks the campaign parameters.
func (c Config) Validate() error {
	switch {
	case c.Services <= 0:
		return fmt.Errorf("attack: Services must be positive")
	case c.InstancesPerLaunch <= 0:
		return fmt.Errorf("attack: InstancesPerLaunch must be positive")
	case c.Launches <= 0:
		return fmt.Errorf("attack: Launches must be positive")
	case c.Interval < 0 || c.HoldActive < 0 || c.RetryBackoff < 0 || c.CongestionBackoff < 0:
		return fmt.Errorf("attack: negative durations")
	case c.Precision <= 0:
		return fmt.Errorf("attack: Precision must be positive")
	case c.LaunchRetries < 0 || c.VoteBudget < 0 || c.ProbeRetryBudget < 0:
		return fmt.Errorf("attack: negative fault-recovery budgets")
	case !covert.ValidChannel(c.Channel):
		return fmt.Errorf("attack: unknown channel %q (rng, llc, membus, combined)", c.Channel)
	case c.CalibrationRounds < 0 || c.MaxVoteBudget < 0 || c.QuarantineAfter < 0:
		return fmt.Errorf("attack: negative noise-hardening budgets")
	case c.MarginFloor < 0 || c.MarginFloor >= 1:
		return fmt.Errorf("attack: MarginFloor must be in [0, 1)")
	case c.NoisyHostBar < 0 || c.NoisyHostBar > 1:
		return fmt.Errorf("attack: NoisyHostBar must be in [0, 1]")
	case c.QuarantineAfter > 0 && c.NoisyHostBar == 0:
		return fmt.Errorf("attack: QuarantineAfter needs a positive NoisyHostBar")
	case c.QuarantineAfter > 0 && c.Channel == covert.CombinedChannelName:
		return fmt.Errorf("attack: QuarantineAfter needs a single channel, not %q", c.Channel)
	case c.MaxVoteBudget == 1 || c.MaxVoteBudget == 2:
		return fmt.Errorf("attack: MaxVoteBudget must be 0 or at least 3")
	case c.FallbackChannel != "" && !covert.ValidChannel(c.FallbackChannel):
		return fmt.Errorf("attack: unknown FallbackChannel %q (rng, llc, membus, combined)", c.FallbackChannel)
	}
	return nil
}

// NoiseHardened reports whether any noise-hardening budget is set. A false
// result guarantees Verify takes the historical single-pass path,
// byte-identical to builds that predate noise hardening.
func (c Config) NoiseHardened() bool {
	return c.CalibrationRounds > 0 || c.MarginFloor > 0 || c.MaxVoteBudget > 0 ||
		c.FallbackChannel != "" || c.QuarantineAfter > 0 || c.CongestionBackoff > 0
}

// FootprintTracker accumulates the set of apparent hosts (distinct Gen 1
// fingerprints) seen across launches.
type FootprintTracker struct {
	precision time.Duration
	// seen maps each fingerprint to the epoch of the last Record batch that
	// saw it: one lookup tells "new to this batch" with no per-batch set.
	seen  map[fingerprint.Gen1]uint32
	epoch uint32
	// retryBudget is how many times a probe-faulted collection is retried
	// per instance before the sample is skipped; retries and skips meter
	// that recovery. At budget 0 a probe fault propagates as an error.
	retryBudget int
	retries     int
	skips       int
}

// NewFootprintTracker builds a tracker at the given precision.
func NewFootprintTracker(precision time.Duration) *FootprintTracker {
	return &FootprintTracker{
		precision: precision,
		seen:      make(map[fingerprint.Gen1]uint32),
	}
}

// SetProbeRetryBudget configures probe-fault recovery: a collection that
// fails with sandbox.ErrProbeFault is retried up to budget times, then the
// instance is skipped for the batch. With budget 0 (the default) the first
// probe fault propagates as a Record error — the unhardened behavior.
func (ft *FootprintTracker) SetProbeRetryBudget(budget int) { ft.retryBudget = budget }

// ProbeRetries returns how many faulted collections were re-issued.
func (ft *FootprintTracker) ProbeRetries() int { return ft.retries }

// ProbeSkips returns how many instances were left unfingerprinted after the
// retry budget ran out.
func (ft *FootprintTracker) ProbeSkips() int { return ft.skips }

// Record fingerprints the instances and returns the number of apparent hosts
// in this batch; the tracker's cumulative set grows accordingly.
func (ft *FootprintTracker) Record(insts []*faas.Instance) (apparent int, err error) {
	ft.epoch++
	for _, inst := range insts {
		g, err := inst.Guest()
		if err != nil {
			return 0, err
		}
		s, err := fingerprint.CollectGen1(g)
		for r := 0; err != nil && errors.Is(err, sandbox.ErrProbeFault) && r < ft.retryBudget; r++ {
			ft.retries++
			s, err = fingerprint.CollectGen1(g)
		}
		if err != nil {
			if errors.Is(err, sandbox.ErrProbeFault) && ft.retryBudget > 0 {
				ft.skips++
				continue
			}
			return 0, err
		}
		fp := fingerprint.Gen1FromSample(s, ft.precision)
		if ft.seen[fp] != ft.epoch {
			ft.seen[fp] = ft.epoch
			apparent++
		}
	}
	return apparent, nil
}

// Cumulative returns the size of the cumulative apparent-host footprint.
func (ft *FootprintTracker) Cumulative() int { return len(ft.seen) }

// Fingerprints returns a copy of the cumulative fingerprint set.
func (ft *FootprintTracker) Fingerprints() map[fingerprint.Gen1]bool {
	out := make(map[fingerprint.Gen1]bool, len(ft.seen))
	for fp := range ft.seen {
		out[fp] = true
	}
	return out
}

// LaunchRecord describes one launch of a campaign.
type LaunchRecord struct {
	Service    string
	LaunchID   int // 1-based, within the service
	At         simtime.Time
	Apparent   int // apparent hosts in this launch
	Cumulative int // cumulative apparent hosts so far (tracker-wide)
}

// CampaignResult is the outcome of a launching campaign.
type CampaignResult struct {
	Records []LaunchRecord
	// Live are the instances still connected when the campaign ended (the
	// last launch of each service is kept).
	Live []*faas.Instance
	// Footprint is the campaign's cumulative apparent-host tracker.
	Footprint *FootprintTracker
}

// serviceNames returns deterministic service names for a campaign.
func serviceNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%02d", prefix, i)
	}
	return out
}
