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
//     be regenerated with RunExperiment (see Experiments for the catalog).
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
	// Platform is the simulated cloud (virtual clock + data centers).
	Platform = faas.Platform
	// Snapshot is an immutable copy-on-write world snapshot: Restore forks
	// byte-identical, fully independent platforms from it (see
	// Platform.Snapshot).
	Snapshot = faas.Snapshot
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
	// HostID is a ground-truth host identity (experiment scoring only;
	// attack code cannot observe it).
	HostID = faas.HostID
	// TrafficModel parameterizes a region's background-tenant traffic (the
	// living-cloud load the noisesweep experiment and -load flag attach).
	TrafficModel = faas.TrafficModel
	// Guest is the sandboxed view attack code runs against.
	Guest = sandbox.Guest
	// Gen identifies the sandbox generation (Gen1 gVisor, Gen2 VM).
	Gen = sandbox.Gen
	// Time is a virtual instant.
	Time = simtime.Time
	// Scheduler is the virtual clock.
	Scheduler = simtime.Scheduler
)

// Placement-policy types (the pluggable orchestrator layer).
type (
	// PlacementPolicy is a region's swappable placement engine.
	PlacementPolicy = faas.PlacementPolicy
	// RandomUniformPolicy is the §6 co-location-resistant defense.
	RandomUniformPolicy = faas.RandomUniformPolicy
)

// FaultPlan is a region's seeded fault-injection configuration
// (deterministic injected failures; the zero value disables them).
type FaultPlan = faas.FaultPlan

// ErrLaunchFault marks transient injected launch failures (retryable).
var ErrLaunchFault = faas.ErrLaunchFault

// UniformFaultPlan derives every fault rate from one severity level.
func UniformFaultPlan(level float64) FaultPlan { return faas.UniformFaultPlan(level) }

// Fingerprinting and verification types (the paper's core contribution).
type (
	// Sample is one raw Gen 1 measurement (model, TSC, wall time).
	Sample = fingerprint.Sample
	// Gen1Fingerprint identifies a host by CPU model + rounded boot time.
	Gen1Fingerprint = fingerprint.Gen1
	// FingerprintHistory tracks derived boot times over time (drift).
	FingerprintHistory = fingerprint.History
	// Drift is a fitted linear boot-time drift.
	Drift = fingerprint.Drift
	// CovertTester runs CTest invocations and accounts their cost.
	CovertTester = covert.Tester
	// ColocTester is the covert capability co-location verification needs;
	// a CovertTester satisfies it.
	ColocTester = coloc.Tester
	// VerifyItem is one instance tagged with its fingerprint.
	VerifyItem = coloc.Item
	// VerifyOptions tunes the scalable verification.
	VerifyOptions = coloc.Options
	// VerifyResult is a verified co-location clustering.
	VerifyResult = coloc.Result
)

// Attack-campaign types (the pluggable attack layer).
type (
	// AttackConfig parameterizes a launching campaign.
	AttackConfig = attack.Config
	// Campaign is the staged attack pipeline: launch → fingerprint →
	// verify → score, driven by a LaunchStrategy.
	Campaign = attack.Campaign
	// CampaignResult is the outcome of a campaign's launch stage.
	CampaignResult = attack.CampaignResult
	// CampaignStats is the per-stage cost/coverage ledger of a campaign.
	CampaignStats = attack.CampaignStats
	// LaunchStrategy is a pluggable §5.2 launching behavior.
	LaunchStrategy = attack.LaunchStrategy
	// OptimizedStrategy is launching Strategy 2 (demand priming).
	OptimizedStrategy = attack.OptimizedStrategy
	// Coverage is an attacker-vs-victim co-location measurement.
	Coverage = attack.Coverage
	// FootprintTracker accumulates apparent hosts across launches.
	FootprintTracker = attack.FootprintTracker
)

// Multi-region fleet types (the cross-region campaign layer).
type (
	// Fleet is a set of independent region worlds attacked as one target.
	Fleet = faas.Fleet
	// FleetCampaign shards one campaign across every region of a Fleet,
	// with a Planner reallocating the launch-round budget between regions.
	FleetCampaign = attack.FleetCampaign
	// Planner decides which region shards get another launch round.
	Planner = attack.Planner
)

// NewFleet builds one independent region world per profile from a shared
// seed. Each region is byte-identical to the same region built alone with
// the same seed, so a fleet attack decomposes exactly into its per-region
// shards.
func NewFleet(seed uint64, profiles ...RegionProfile) (*Fleet, error) {
	return faas.NewFleet(seed, profiles...)
}

// NewFleetAttackCampaign binds a launch strategy, an account identity and a
// budget planner to a fleet. A nil planner selects the strategy's native
// continue/stop rule, making a one-region fleet byte-identical to the legacy
// single-region campaign.
func NewFleetAttackCampaign(fleet *Fleet, account string, cfg AttackConfig, gen Gen,
	strategy LaunchStrategy, planner Planner) (*FleetCampaign, error) {
	return attack.NewFleetCampaign(fleet, account, cfg, gen, strategy, planner)
}

// AttackPlannerByName resolves a built-in budget planner from its name
// ("static-even", "proportional", "adaptive").
func AttackPlannerByName(name string) (Planner, error) { return attack.PlannerByName(name) }

// MergeCoverages folds per-shard coverages into one fleet-wide measurement.
func MergeCoverages(covs ...Coverage) Coverage { return attack.MergeCoverages(covs...) }

// Extraction (threat-model step 2) types.
type (
	// ExtractionSchedule is a victim's secret-dependent execution plan.
	ExtractionSchedule = extraction.Schedule
	// ExtractionTrace is an attacker's recovered activity trace.
	ExtractionTrace = extraction.Trace
	// MonitorConfig tunes the contention monitor.
	MonitorConfig = extraction.MonitorConfig
	// TargetBook records victim-host fingerprints for re-attacks.
	TargetBook = attack.TargetBook
	// Mitigations are the §6 TSC-masking platform defenses.
	Mitigations = sandbox.Mitigations
)

// Experiment harness types.
type (
	// Experiment describes one runnable paper artifact.
	Experiment = experiments.Descriptor
	// ExperimentContext configures an experiment run.
	ExperimentContext = experiments.Context
	// ExperimentResult holds an experiment's figures, tables and metrics.
	ExperimentResult = experiments.Result
	// ExperimentOutcome pairs one experiment id with its result or error.
	ExperimentOutcome = experiments.Outcome
)

// Rates are per-resource prices.
type Rates = pricing.Rates

// Sandbox generations.
const (
	Gen1 = sandbox.Gen1
	Gen2 = sandbox.Gen2
)

// Names of studied Cloud Run regions.
const (
	USEast1 = faas.USEast1
	USWest1 = faas.USWest1
)

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
// panics on an invalid profile set (use faas.NewPlatform via the internal
// API for error returns).
func NewPlatform(seed uint64, profiles ...RegionProfile) *Platform {
	return faas.MustPlatform(seed, profiles...)
}

// USEast1Profile returns the default us-east1 data center profile.
func USEast1Profile() RegionProfile { return faas.USEast1Profile() }

// USWest1Profile returns the default us-west1 data center profile.
func USWest1Profile() RegionProfile { return faas.USWest1Profile() }

// DefaultTrafficModel returns a background-traffic model with the stock
// Zipf/burst/diurnal shape, sized to the given tenant count and steady-state
// fleet utilization target. Assign it to RegionProfile.Traffic; the zero
// TrafficModel keeps a region quiet and byte-identical to a traffic-free
// build.
func DefaultTrafficModel(tenants int, util float64) TrafficModel {
	return faas.DefaultTrafficModel(tenants, util)
}

// CollectGen1 takes one Gen 1 fingerprint measurement inside a guest.
func CollectGen1(g *Guest) (Sample, error) { return fingerprint.CollectGen1(g) }

// Duration re-exports time.Duration for API symmetry.
type Duration = time.Duration

// Gen1FromSample quantizes a sample into a fingerprint.
func Gen1FromSample(s Sample, precision Duration) Gen1Fingerprint {
	return fingerprint.Gen1FromSample(s, precision)
}

// NewCovertTester builds a covert-channel tester with the paper's defaults
// (RNG channel, 60 rounds, 30 votes, 100 ms per test).
func NewCovertTester(sched *Scheduler) *CovertTester {
	return covert.NewTester(sched, covert.DefaultConfig())
}

// ValidCovertChannel reports whether name selects a covert channel: "rng",
// "llc", "membus", "combined", or empty for the default RNG channel.
func ValidCovertChannel(name string) bool { return covert.ValidChannel(name) }

// VerifyColocation runs the scalable §4.3 verification with any ColocTester
// (NewCovertTester builds the paper's).
func VerifyColocation(tester ColocTester, items []VerifyItem, opt VerifyOptions) (*VerifyResult, error) {
	return coloc.Verify(tester, items, opt)
}

// DefaultVerifyOptions returns the paper's verification parameters (m = 2).
func DefaultVerifyOptions() VerifyOptions { return coloc.DefaultOptions() }

// DefaultAttackConfig returns the optimized-strategy campaign parameters.
func DefaultAttackConfig() AttackConfig { return attack.DefaultConfig() }

// RunNaiveAttack executes launching Strategy 1 (cold launches only).
func RunNaiveAttack(acct *Account, cfg AttackConfig, gen Gen) (*CampaignResult, error) {
	return launchAttack(acct, cfg, gen, attack.NaiveStrategy{})
}

// RunOptimizedAttack executes launching Strategy 2 (demand priming).
func RunOptimizedAttack(acct *Account, cfg AttackConfig, gen Gen) (*CampaignResult, error) {
	return launchAttack(acct, cfg, gen, attack.OptimizedStrategy{})
}

// launchAttack runs one strategy's launch stage through a fresh campaign.
func launchAttack(acct *Account, cfg AttackConfig, gen Gen, s LaunchStrategy) (*CampaignResult, error) {
	c, err := attack.NewCampaign(acct, cfg, gen, s)
	if err != nil {
		return nil, err
	}
	return c.Launch()
}

// NewAttackCampaign binds a launch strategy to an attacker account; run its
// stages with Campaign.Launch and Campaign.Verify, and read the cost ledger
// back with Campaign.Stats.
func NewAttackCampaign(acct *Account, cfg AttackConfig, gen Gen, strategy LaunchStrategy) (*Campaign, error) {
	return attack.NewCampaign(acct, cfg, gen, strategy)
}

// AttackStrategies returns one instance of every built-in launch strategy.
func AttackStrategies() []LaunchStrategy { return attack.Strategies() }

// AttackStrategyByName resolves a built-in launch strategy from its name
// ("naive", "optimized", "adaptive").
func AttackStrategyByName(name string) (LaunchStrategy, error) {
	return attack.StrategyByName(name)
}

// MeasureCoverage verifies attacker-victim co-location.
func MeasureCoverage(tester ColocTester, attacker, victims []*Instance, precision Duration) (Coverage, error) {
	return attack.MeasureCoverage(tester, attacker, victims, precision)
}

// MeasureCoverageDetail is MeasureCoverage plus the verified co-located
// attacker instances (the spies for extraction and re-attack targeting).
func MeasureCoverageDetail(tester ColocTester, attacker, victims []*Instance, precision Duration) (Coverage, []*Instance, error) {
	return attack.MeasureCoverageDetail(tester, attacker, victims, precision)
}

// NewTargetBook creates a re-attack fingerprint book (§5.2 optimization).
func NewTargetBook(precision Duration) *TargetBook { return attack.NewTargetBook(precision) }

// MonitorExtraction runs the post-co-location spy loop (threat model step 2).
func MonitorExtraction(sched *Scheduler, spy *Instance, s ExtractionSchedule, cfg MonitorConfig) (ExtractionTrace, error) {
	return extraction.Monitor(sched, spy, s, cfg)
}

// DefaultMonitorConfig returns the extraction monitor defaults.
func DefaultMonitorConfig() MonitorConfig { return extraction.DefaultMonitorConfig() }

// NewFootprintTracker builds an apparent-host tracker at the given
// fingerprint precision.
func NewFootprintTracker(precision Duration) *FootprintTracker {
	return attack.NewFootprintTracker(precision)
}

// CloudRunRates returns the published Cloud Run prices.
func CloudRunRates() Rates { return pricing.CloudRunRates() }

// Experiments lists every reproducible paper artifact in order.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment regenerates one paper artifact ("fig4" ... "gen2cov").
func RunExperiment(id string, ctx ExperimentContext) (*ExperimentResult, error) {
	return experiments.Run(id, ctx)
}

// RunExperiments regenerates several artifacts through the bounded trial
// pool (ctx.Jobs workers; each experiment runs sequentially inside so the
// cross-experiment and intra-experiment parallelism do not multiply).
// Outcomes are returned in input order, one per id, failures included.
func RunExperiments(ids []string, ctx ExperimentContext) []ExperimentOutcome {
	return experiments.RunAll(ids, ctx)
}
