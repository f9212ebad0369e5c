package main

import (
	"errors"
	"fmt"
	"time"

	"eaao/internal/core/attack"
	"eaao/internal/core/covert"
	"eaao/internal/faas"
	"eaao/internal/sandbox"
)

// Account and service names of the benchmark worlds. The victim service is
// launched in set-up, before the snapshot; every op forks that instant and
// attacks it with a fresh attacker account.
const (
	victimAccount = "victim"
	victimService = "v"
	attackerAcct  = "attacker"
	victimRetries = 8
	victimBackoff = 15 * time.Second
)

// workload is one benchmark input: the world set-up builds and the campaign
// every op runs against a fork of it.
type workload struct {
	name string
	why  string
	// profile is the single region the world holds.
	profile func() faas.RegionProfile
	// warmup is simulated time the world runs before the victims launch.
	warmup time.Duration
	// victims is the victim instance count, launched once in set-up.
	victims int
	gen     sandbox.Gen
	cfg     func() attack.Config
	// worlds is how many worlds, each from its own seed, a run builds and
	// cycles its ops through. A world's CTest count, coverage and cost
	// depend on its seed; mixing many worlds per run keeps every run's
	// figures close to the workload's mean, whatever the run seed.
	worlds int
}

var workloads = []workload{
	{
		name:    "campaign-gen1",
		why:     "the paper's headline attack (full-scale us-east1, 100 Gen1 victims, 6x6x800): launch, placement, lifecycle kernel and fingerprinting dominate",
		profile: faas.USEast1Profile,
		victims: 100,
		gen:     sandbox.Gen1,
		cfg:     attack.DefaultConfig,
		worlds:  64,
	},
	{
		name:    "verify-gen2",
		why:     "Gen2 hides boot time, so co-location rests on CTests (50 victims, 2x2x200): the covert/coloc verification path dominates, launch barely registers",
		profile: faas.USEast1Profile,
		victims: 50,
		gen:     sandbox.Gen2,
		cfg: func() attack.Config {
			cfg := attack.DefaultConfig()
			cfg.Services = 2
			cfg.Launches = 2
			cfg.InstancesPerLaunch = 200
			return cfg
		},
		worlds: 64,
	},
	{
		name:    "campaign-loaded",
		why:     "quarter-scale us-east1 at 0.7 bystander load: shed and retried launches, calibrated and escalated LLC verification, traffic-driven kernel events, restore of a busy world",
		profile: loadedProfile,
		warmup:  2 * time.Hour,
		victims: 60,
		gen:     sandbox.Gen1,
		cfg:     loadedConfig,
		// Loaded worlds' costs spread widest (a few climb the whole noise
		// ladder): with 64 worlds the cost per victim still moved 10–13%
		// from seed to seed.
		worlds: 128,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// loadedProfile is us-east1 cut to quarter scale with every ratio kept (the
// CLI's -quick profile), carrying the noise sweep's "busy" traffic tier.
func loadedProfile() faas.RegionProfile {
	p := faas.USEast1Profile()
	p.NumHosts = 125
	p.PlacementGroups = 5
	p.BasePoolSize = 24
	p.AccountHelperPool = 65
	p.ServiceHelperSize = 48
	p.ServiceHelperFresh = 4
	p.Traffic = faas.DefaultTrafficModel(p.NumHosts, 0.70)
	return p
}

// loadedConfig is the noise sweep's hardened LLC campaign: fault budgets
// for shed launch waves plus the full noise ladder (calibration, margin
// watch, vote raises, rng fallback, quarantine, congestion backoff).
func loadedConfig() attack.Config {
	cfg := attack.DefaultConfig()
	cfg.Services = 2
	cfg.Launches = 4
	cfg.InstancesPerLaunch = 200
	cfg.Channel = "llc"
	cfg.LaunchRetries = 6
	cfg.RetryBackoff = 30 * time.Second
	cfg.VoteBudget = 3
	cfg.ProbeRetryBudget = 3
	cfg.CalibrationRounds = 240
	cfg.MarginFloor = 0.08
	cfg.MaxVoteBudget = 5
	cfg.FallbackChannel = "rng"
	cfg.QuarantineAfter = 2
	cfg.NoisyHostBar = 0.4
	cfg.CongestionBackoff = 30 * time.Second
	return cfg
}

// world is what set-up leaves behind: the frozen instant every op forks,
// and the outcome of the first op on it, which every later op must match.
type world struct {
	seed   uint64
	snap   *faas.Snapshot
	region faas.Region
	ref    *opResult
}

// setupTimes splits one set-up into its stages.
type setupTimes struct {
	build, warmup, snapshot time.Duration
}

// setup builds the world for seed: platform, warm-up, victim launch and
// snapshot.
func (w *workload) setup(seed uint64) (*world, setupTimes, error) {
	var t setupTimes
	prof := w.profile()
	start := time.Now()
	pl, err := faas.NewPlatform(seed, prof)
	if err != nil {
		return nil, t, fmt.Errorf("build platform: %w", err)
	}
	dc, err := pl.Region(prof.Name)
	if err != nil {
		return nil, t, err
	}
	t.build = time.Since(start)

	mark := time.Now()
	if w.warmup > 0 {
		pl.Scheduler().Advance(w.warmup)
	}
	t.warmup = time.Since(mark)

	if err := launchVictims(dc, w.gen, w.victims); err != nil {
		return nil, t, err
	}

	mark = time.Now()
	snap, err := pl.Snapshot()
	if err != nil {
		return nil, t, fmt.Errorf("snapshot: %w", err)
	}
	t.snapshot = time.Since(mark)
	return &world{seed: seed, snap: snap, region: prof.Name}, t, nil
}

// launchVictims launches the victim service, retrying launches the
// congestion plane sheds the way a production deploy pipeline would.
func launchVictims(dc *faas.DataCenter, gen sandbox.Gen, n int) error {
	svc := dc.Account(victimAccount).DeployService(victimService, faas.ServiceConfig{Gen: gen})
	_, err := svc.Launch(n)
	for tries := 0; err != nil && errors.Is(err, faas.ErrLaunchFault) && tries < victimRetries; tries++ {
		dc.Scheduler().Advance(victimBackoff)
		_, err = svc.Launch(n)
	}
	if err != nil {
		return fmt.Errorf("launch victims: %w", err)
	}
	return nil
}

// opResult is one campaign's simulated outcome plus what the benchmark
// observed of the fork around it.
type opResult struct {
	stats attack.CampaignStats
	cov   attack.Coverage
	// victims is how many victim instances the op found live on the fork.
	victims int
	// died is the error a campaign died of, or empty.
	died string
	// digest folds the whole ledger, the coverage and any death; every op
	// on a world must match the first op on it.
	digest string
	// Kernel and platform observables, deltas over the op where cumulative.
	events            uint64
	redraws, rejects  int
	materializedHosts int
	liveInstances     int
}

// runOp is one closed-loop operation: fork the world, find the victims,
// run a full optimized campaign against them and fold its ledger. With a
// non-nil tracer every layer boundary is recorded as a span.
func (w *workload) runOp(wd *world, tr *tracer) (opResult, error) {
	var res opResult
	root := tr.begin(layerOp)
	defer tr.end(root)

	sp := tr.begin(layerRestore)
	pl, err := wd.snap.Restore()
	tr.end(sp)
	if err != nil {
		return res, fmt.Errorf("restore: %w", err)
	}
	dc, err := pl.Region(wd.region)
	if err != nil {
		return res, err
	}
	sched := dc.Scheduler()
	events0 := sched.Executed()
	traffic0 := dc.TrafficStats()
	victims := dc.Account(victimAccount).DeployService(victimService, faas.ServiceConfig{Gen: w.gen}).Instances()

	var strategy attack.LaunchStrategy = attack.OptimizedStrategy{}
	if tr != nil {
		strategy = &tracedStrategy{inner: strategy, tr: tr}
	}
	cfg := w.cfg()
	camp, err := attack.NewCampaign(dc.Account(attackerAcct), cfg, w.gen, strategy)
	if err != nil {
		return res, err
	}
	// The traced run times CTests through a runner wrapper, except on a
	// noise-hardened campaign: that one swaps its runner itself
	// (calibration, vote raises, fallback), so a wrapper would be bypassed
	// or would change the ladder.
	if tr != nil && !cfg.NoiseHardened() {
		r, err := covert.RunnerFor(cfg.Channel, sched, cfg.VoteBudget)
		if err != nil {
			return res, err
		}
		camp.SetTester(&tracedRunner{inner: r, tr: tr})
	}

	res.victims = len(victims)
	sp = tr.begin(layerLaunch)
	_, err = camp.Launch()
	tr.end(sp)
	if err == nil {
		sp = tr.begin(layerVerify)
		res.cov, _, err = camp.Verify(victims)
		tr.end(sp)
	}
	// A campaign that runs out of retries against shed launches or probe
	// faults dies; that is a modelled outcome (no coverage, the spend so
	// far), not a failed op.
	switch {
	case err == nil:
	case errors.Is(err, faas.ErrLaunchFault) || errors.Is(err, sandbox.ErrProbeFault):
		res.died = err.Error()
	default:
		return res, fmt.Errorf("campaign: %w", err)
	}

	res.stats = camp.Stats()
	res.digest = fmt.Sprintf("%+v|%+v|%s", res.stats, res.cov, res.died)
	res.events = sched.Executed() - events0
	traffic := dc.TrafficStats()
	res.redraws = traffic.DemandRedraws - traffic0.DemandRedraws
	res.rejects = traffic.CongestionRejects - traffic0.CongestionRejects
	res.materializedHosts = dc.MaterializedHosts()
	res.liveInstances = dc.LiveInstances()
	return res, nil
}

// summary is the modelled outcome printed beside the timings.
func (r opResult) summary() string {
	st := r.stats
	status := ""
	if r.died != "" {
		status = "campaign died (" + r.died + "), "
	}
	return status + fmt.Sprintf("coverage %d/%d, $%.4f total ($%.4f noise, $%.4f fault), $%.6f/victim, %d CTests, %d waves, %d live instances, %d apparent hosts, %d calibrations, %d vote raises, %d fallbacks, %d launch retries",
		st.VictimsCovered, r.victims, st.USD, st.NoiseUSD, st.FaultUSD,
		st.CostPerVictim(), st.CTests, st.Waves, st.LiveInstances, st.ApparentHosts,
		st.Calibrations, st.NoiseEscalations, st.ChannelFallbacks, st.LaunchRetries)
}
