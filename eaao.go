// Package eaao is a Go reproduction of "Everywhere All at Once: Co-Location
// Attacks on Public Cloud FaaS" (ASPLOS 2024).
//
// The package bundles three layers:
//
//   - A deterministic simulator of a Cloud-Run-like FaaS platform
//     (NewPlatform): physical hosts with real TSC physics, accounts,
//     services, container instances, and an orchestrator reproducing the
//     placement behaviours the paper reverse-engineered (base hosts, helper
//     hosts, demand-window load balancing, gradual idle termination).
//   - The paper's attacker toolkit: TSC-based host fingerprinting for the
//     Gen 1 (gVisor) sandbox, the n-way RNG-contention covert channel,
//     scalable co-location verification, the naive and optimized
//     instance-launching strategies, and the staged campaign engine
//     (single-region and multi-region fleets).
//   - The full evaluation harness: every figure and table of the paper can
//     be regenerated with RunExperiments (see Experiments for the catalog).
//
// A minimal end-to-end use:
//
//	pl := eaao.NewPlatform(42, eaao.USEast1Profile())
//	dc := pl.MustRegion(eaao.USEast1)
//	svc := dc.Account("me").DeployService("probe", eaao.ServiceConfig{})
//	insts, _ := svc.Launch(100)
//	g := insts[0].MustGuest()
//	sample, _ := eaao.CollectGen1(g)
//	fp := eaao.Gen1FromSample(sample, eaao.DefaultPrecision)
//	fmt.Println(fp) // the physical host's fingerprint
//
// Everything is deterministic in the seed: identical seeds produce identical
// worlds, launches, fingerprints, and attack outcomes.
package eaao

import (
	"time"

	"eaao/internal/core/attack"
	"eaao/internal/core/coloc"
	"eaao/internal/core/covert"
	"eaao/internal/core/extraction"
	"eaao/internal/core/fingerprint"
	"eaao/internal/experiments"
	"eaao/internal/faas"
	"eaao/internal/pricing"
	"eaao/internal/sandbox"
	"eaao/internal/simtime"
)

// Platform simulation types.
type (
	// DataCenter is one simulated region.
	DataCenter = faas.DataCenter
	// Region names a data center.
	Region = faas.Region
	// RegionProfile parameterizes a data center's fleet and orchestrator.
	RegionProfile = faas.RegionProfile
	// Account is one tenant identity.
	Account = faas.Account
	// Service is a deployed function.
	Service = faas.Service
	// ServiceConfig configures a deployment (size, sandbox generation).
	ServiceConfig = faas.ServiceConfig
	// Instance is one container instance.
	Instance = faas.Instance
	// Gen identifies the sandbox generation (Gen1 gVisor, Gen2 VM).
	Gen = sandbox.Gen
	// Time is a virtual instant.
	Time = simtime.Time
)

// PlacementPolicy is a region's swappable placement engine (the pluggable
// orchestrator layer).
type PlacementPolicy = faas.PlacementPolicy

// FaultPlan is a region's seeded fault-injection configuration
// (deterministic injected failures; the zero value disables them).
type FaultPlan = faas.FaultPlan

// ErrLaunchFault marks transient injected launch failures (retryable).
var ErrLaunchFault = faas.ErrLaunchFault

// UniformFaultPlan derives every fault rate from one severity level.
func UniformFaultPlan(level float64) FaultPlan { return faas.UniformFaultPlan(level) }

// Fingerprinting and verification types (the paper's core contribution).
type (
	// Gen1Fingerprint identifies a host by CPU model + rounded boot time.
	Gen1Fingerprint = fingerprint.Gen1
	// FingerprintHistory tracks derived boot times over time (drift).
	FingerprintHistory = fingerprint.History
	// Drift is a fitted linear boot-time drift.
	Drift = fingerprint.Drift
	// VerifyItem is one instance tagged with its fingerprint.
	VerifyItem = coloc.Item
)

// Attack-campaign types (the pluggable attack layer).
type (
	// AttackConfig parameterizes a launching campaign.
	AttackConfig = attack.Config
	// CampaignResult is the outcome of a campaign's launch stage.
	CampaignResult = attack.CampaignResult
	// LaunchStrategy is a pluggable §5.2 launching behavior.
	LaunchStrategy = attack.LaunchStrategy
	// Coverage is an attacker-vs-victim co-location measurement.
	Coverage = attack.Coverage
	// CoverageOpts parameterizes MeasureCoverage: fingerprint precision and
	// the probe-fault retry budget.
	CoverageOpts = attack.CoverageOpts
	// FootprintTracker accumulates apparent hosts across launches.
	FootprintTracker = attack.FootprintTracker
)

// Planner decides which region shards of a fleet campaign get another
// launch round.
type Planner = attack.Planner

// NewFleet builds one independent region world per profile from a shared
// seed. Each region is byte-identical to the same region built alone with
// the same seed, so a fleet attack decomposes exactly into its per-region
// shards.
func NewFleet(seed uint64, profiles ...RegionProfile) (*faas.Fleet, error) {
	return faas.NewFleet(seed, profiles...)
}

// NewFleetAttackCampaign binds a launch strategy, an account identity and a
// budget planner to a fleet. A nil planner selects the strategy's native
// continue/stop rule, making a one-region fleet byte-identical to the legacy
// single-region campaign.
func NewFleetAttackCampaign(fleet *faas.Fleet, account string, cfg AttackConfig, gen Gen,
	strategy LaunchStrategy, planner Planner) (*attack.FleetCampaign, error) {
	return attack.NewFleetCampaign(fleet, account, cfg, gen, strategy, planner)
}

// AttackPlannerByName resolves a built-in budget planner from its name
// ("static-even", "proportional", "adaptive").
func AttackPlannerByName(name string) (Planner, error) { return attack.PlannerByName(name) }

// MergeCoverages folds per-shard coverages into one fleet-wide measurement.
func MergeCoverages(covs ...Coverage) Coverage { return attack.MergeCoverages(covs...) }

// ExtractionSchedule is a victim's secret-dependent execution plan
// (threat-model step 2).
type ExtractionSchedule = extraction.Schedule

// Mitigations are the §6 TSC-masking platform defenses.
type Mitigations = sandbox.Mitigations

// Experiment harness types.
type (
	// ExperimentContext configures an experiment run.
	ExperimentContext = experiments.Context
	// ExperimentResult holds an experiment's figures, tables and metrics.
	ExperimentResult = experiments.Result
)

// Sandbox generations.
const (
	Gen1 = sandbox.Gen1
	Gen2 = sandbox.Gen2
)

// USEast1 names the us-east1 Cloud Run region.
const USEast1 = faas.USEast1

// DefaultPrecision is the paper's default fingerprint rounding (1 s).
const DefaultPrecision = fingerprint.DefaultPrecision

// PlacementPolicyByName resolves a built-in policy from its name
// ("cloudrun", "random-uniform", "least-loaded", plus short aliases).
func PlacementPolicyByName(name string) (PlacementPolicy, error) {
	return faas.PolicyByName(name)
}

// SizeSmall is the Cloud Run default container size (Table 1).
var SizeSmall = faas.SizeSmall

// NewPlatform builds a simulated cloud from a seed and region profiles; it
// panics on an invalid profile set.
func NewPlatform(seed uint64, profiles ...RegionProfile) *faas.Platform {
	return faas.MustPlatform(seed, profiles...)
}

// USEast1Profile returns the default us-east1 data center profile.
func USEast1Profile() RegionProfile { return faas.USEast1Profile() }

// CollectGen1 takes one Gen 1 fingerprint measurement inside a guest.
func CollectGen1(g *sandbox.Guest) (fingerprint.Sample, error) { return fingerprint.CollectGen1(g) }

// Gen1FromSample quantizes a sample into a fingerprint.
func Gen1FromSample(s fingerprint.Sample, precision time.Duration) Gen1Fingerprint {
	return fingerprint.Gen1FromSample(s, precision)
}

// NewCovertTester builds a covert-channel tester with the paper's defaults
// (RNG channel, 60 rounds, 30 votes, 100 ms per test).
func NewCovertTester(sched *simtime.Scheduler) *covert.Tester {
	return covert.NewTester(sched, covert.DefaultConfig())
}

// VerifyColocation runs the scalable §4.3 verification with any covert
// tester (NewCovertTester builds the paper's).
func VerifyColocation(tester coloc.Tester, items []VerifyItem, opt coloc.Options) (*coloc.Result, error) {
	return coloc.Verify(tester, items, opt)
}

// DefaultVerifyOptions returns the paper's verification parameters (m = 2).
func DefaultVerifyOptions() coloc.Options { return coloc.DefaultOptions() }

// DefaultAttackConfig returns the optimized-strategy campaign parameters.
func DefaultAttackConfig() AttackConfig { return attack.DefaultConfig() }

// NewAttackCampaign binds a launch strategy (see AttackStrategyByName) to an
// attacker account; run its stages with Launch and Verify, and read the cost
// ledger back with Stats.
func NewAttackCampaign(acct *Account, cfg AttackConfig, gen Gen, strategy LaunchStrategy) (*attack.Campaign, error) {
	return attack.NewCampaign(acct, cfg, gen, strategy)
}

// AttackStrategyByName resolves a built-in launch strategy from its name
// ("naive", "optimized", "adaptive").
func AttackStrategyByName(name string) (LaunchStrategy, error) {
	return attack.StrategyByName(name)
}

// MeasureCoverage verifies attacker-victim co-location and returns the
// verified co-located attacker instances (the spies for extraction and
// re-attack targeting).
func MeasureCoverage(tester coloc.Tester, attacker, victims []*Instance, opts CoverageOpts) (Coverage, []*Instance, error) {
	return attack.MeasureCoverage(tester, attacker, victims, opts)
}

// MonitorExtraction runs the post-co-location spy loop (threat model step 2).
func MonitorExtraction(sched *simtime.Scheduler, spy *Instance, s ExtractionSchedule,
	cfg extraction.MonitorConfig) (extraction.Trace, error) {
	return extraction.Monitor(sched, spy, s, cfg)
}

// DefaultMonitorConfig returns the extraction monitor defaults.
func DefaultMonitorConfig() extraction.MonitorConfig { return extraction.DefaultMonitorConfig() }

// NewFootprintTracker builds an apparent-host tracker at the given
// fingerprint precision.
func NewFootprintTracker(precision time.Duration) *FootprintTracker {
	return attack.NewFootprintTracker(precision)
}

// CloudRunRates returns the published Cloud Run prices.
func CloudRunRates() pricing.Rates { return pricing.CloudRunRates() }

// Experiments lists every reproducible paper artifact in order.
func Experiments() []experiments.Descriptor { return experiments.All() }

// RunExperiments regenerates paper artifacts ("fig4" ... "gen2cov") through
// the bounded trial pool: ctx.Jobs workers, split between the experiments
// and each experiment's own trials so the two do not multiply. Outcomes are
// returned in input order, one per id, failures included.
func RunExperiments(ids []string, ctx ExperimentContext) []experiments.Outcome {
	return experiments.RunAll(ids, ctx)
}
