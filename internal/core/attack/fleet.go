package attack

import (
	"fmt"

	"eaao/internal/faas"
	"eaao/internal/par"
	"eaao/internal/sandbox"
)

// FleetCampaign runs one coordinated attack across every region of a
// faas.Fleet: one Campaign shard per region world, stepped in lockstep
// rounds, with a Planner reallocating the fleet's launch-round budget
// across shards between rounds. Each round, every active shard launches its
// waves on a bounded worker pool (SetJobs, internal/par); the planner then
// reads the shards' statuses in fleet order and every shard ends its round
// as granted. Worlds never share state and every decision is index-ordered,
// so the outcome is byte-identical for any worker count.
//
// The built-in strategies map onto the sharded pipeline exactly:
// OptimizedStrategy and AdaptiveStrategy become paced round loops whose
// continue/stop decision moves from the strategy into the planner (the
// default planner for each reproduces the strategy's own rule, so a
// one-shard fleet is byte-identical to a single-region Campaign);
// NaiveStrategy and custom strategies run unpaced to completion, one shard
// per region, with no budget coordination.
type FleetCampaign struct {
	fleet    *faas.Fleet
	account  string
	cfg      Config
	gen      sandbox.Gen
	strategy LaunchStrategy
	planner  Planner
	jobs     int

	shards   []*fleetShard
	launched bool
	budget   int
	rounds   int
}

// fleetShard is one region's campaign plus its round loop (nil for unpaced
// strategies), its status for the planner, the planner's verdict on its
// latest round, and its launch error.
type fleetShard struct {
	camp   *Campaign
	loop   *rounds
	status ShardStatus
	grant  bool
	err    error
}

// NewFleetCampaign binds a strategy, an account identity (instantiated per
// region), and a budget planner to a fleet. A nil planner selects the
// strategy's native rule: StaticEvenPlanner for OptimizedStrategy,
// CrossRegionPlanner (with the strategy's MinYield) for AdaptiveStrategy.
// NaiveStrategy and custom strategies pace themselves; the planner is not
// consulted for them.
func NewFleetCampaign(fleet *faas.Fleet, account string, cfg Config, gen sandbox.Gen,
	strategy LaunchStrategy, planner Planner) (*FleetCampaign, error) {
	if fleet == nil || fleet.Size() == 0 {
		return nil, fmt.Errorf("attack: fleet campaign needs a fleet")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if strategy == nil {
		return nil, fmt.Errorf("attack: fleet campaign needs a strategy")
	}
	if planner == nil {
		planner = plannerFor(strategy)
	}
	return &FleetCampaign{
		fleet:    fleet,
		account:  account,
		cfg:      cfg,
		gen:      gen,
		strategy: strategy,
		planner:  planner,
	}, nil
}

// plannerFor returns the planner that reproduces a built-in strategy's own
// continue/stop rule, so that strategy semantics are preserved when the
// caller does not pick a planner explicitly.
func plannerFor(strategy LaunchStrategy) Planner {
	if s, ok := strategy.(AdaptiveStrategy); ok {
		return CrossRegionPlanner{MinYield: s.MinYield}
	}
	return StaticEvenPlanner{}
}

// pacedPrefix maps a built-in round-looping strategy to its service-name
// prefix; ok is false for strategies that run unpaced (naive, custom).
func pacedPrefix(strategy LaunchStrategy) (prefix string, ok bool) {
	switch strategy.(type) {
	case OptimizedStrategy:
		return "opt", true
	case AdaptiveStrategy:
		return "adaptive", true
	}
	return "", false
}

// SetJobs bounds how many shards may step their worlds concurrently; 0 (the
// default) lets every shard run at once. The bound never changes the
// outcome, only wall-clock: coordination is index-ordered either way.
func (fc *FleetCampaign) SetJobs(n int) { fc.jobs = n }

// Planner returns the campaign's budget planner.
func (fc *FleetCampaign) Planner() Planner { return fc.planner }

// Budget returns the fleet's total launch-round budget (regions × Launches)
// and RoundsUsed how many rounds were actually granted; both are zero until
// Launch and RoundsUsed stays zero for unpaced strategies.
func (fc *FleetCampaign) Budget() int { return fc.budget }

// RoundsUsed returns how many launch rounds ran across all shards.
func (fc *FleetCampaign) RoundsUsed() int { return fc.rounds }

// Shards returns the per-region campaigns in fleet order (empty before
// Launch).
func (fc *FleetCampaign) Shards() []*Campaign {
	out := make([]*Campaign, len(fc.shards))
	for i, sh := range fc.shards {
		out[i] = sh.camp
	}
	return out
}

// Launch runs every shard's launch stage to completion. Paced strategies
// pass a planning step after every round, where the planner decides which
// shards keep launching; unpaced strategies run straight through. It can run
// at most once. If a shard fails, every other shard finishes the round in
// flight and stops there, and the error of the lowest-indexed failing shard
// is returned.
func (fc *FleetCampaign) Launch() error {
	if fc.launched {
		return fmt.Errorf("attack: fleet campaign already launched")
	}
	fc.launched = true

	for _, dc := range fc.fleet.Shards() {
		camp, err := NewCampaign(dc.Account(fc.account), fc.cfg, fc.gen, fc.strategy)
		if err != nil {
			return err
		}
		fc.shards = append(fc.shards, &fleetShard{camp: camp, status: ShardStatus{Region: dc.Region()}})
	}
	prefix, paced := pacedPrefix(fc.strategy)
	if !paced {
		return par.For(len(fc.shards), fc.jobs, func(i int) error {
			_, err := fc.shards[i].camp.Launch()
			return err
		})
	}

	fc.budget = len(fc.shards) * fc.cfg.Launches
	fc.rounds = len(fc.shards) // every shard's first round is implicit
	for _, sh := range fc.shards {
		if err := sh.camp.begin(); err != nil {
			return err
		}
		sh.loop = newRounds(campaignSink{sh.camp}, fc.cfg, prefix)
	}
	for more := true; more; {
		fc.step((*fleetShard).launch)
		more = fc.plan()
		fc.step((*fleetShard).end)
	}
	return fc.err()
}

// step runs fn on every unfinished shard on the worker pool. Shard steps
// never fail the pool: a failed shard must not keep its siblings from
// finishing the round.
func (fc *FleetCampaign) step(fn func(*fleetShard)) {
	par.For(len(fc.shards), fc.jobs, func(i int) error {
		if sh := fc.shards[i]; !sh.status.Finished {
			fn(sh)
		}
		return nil
	})
}

// plan asks the planner which unfinished shards launch another round,
// clamping grants to the remaining budget in shard order, and reports
// whether any shard was granted one. A failed shard shuts the whole fleet
// down: every shard is denied, so each world stops at a clean round boundary
// before the error propagates.
func (fc *FleetCampaign) plan() bool {
	var want []bool
	if fc.err() == nil {
		statuses := make([]ShardStatus, len(fc.shards))
		for i, sh := range fc.shards {
			statuses[i] = sh.status
		}
		want = fc.planner.Plan(statuses, fc.budget-fc.rounds)
	}
	more := false
	for i, sh := range fc.shards {
		sh.grant = !sh.status.Finished && i < len(want) && want[i] && fc.rounds < fc.budget
		if sh.grant {
			fc.rounds++
			more = true
		}
	}
	return more
}

// err returns the launch error of the lowest-indexed failed shard.
func (fc *FleetCampaign) err() error {
	for _, sh := range fc.shards {
		if sh.err != nil {
			return sh.err
		}
	}
	return nil
}

// launch runs the shard's next round and records its footprint growth for
// the planner. A failed shard is finished.
func (sh *fleetShard) launch() {
	before, after, err := sh.loop.launch()
	if err != nil {
		sh.err = err
		sh.status.Finished = true
		return
	}
	st := &sh.status
	st.Rounds = sh.loop.round
	st.Before = before
	st.Grown = after - before
	st.Cumulative = after
	if st.Rounds == 1 {
		st.FirstRound = st.Grown
	}
}

// end closes the shard's round as granted. A shard denied another round
// keeps its last waves, closes its launch stage, and is finished.
func (sh *fleetShard) end() {
	sh.loop.end(sh.grant)
	if !sh.grant {
		sh.camp.end()
		sh.status.Finished = true
	}
}

// ShardVerification is one region's verify-stage outcome.
type ShardVerification struct {
	// Region names the shard.
	Region faas.Region
	// Coverage is the shard's attacker-vs-victim measurement.
	Coverage Coverage
	// Spies are the shard's verified co-located attacker instances.
	Spies []*faas.Instance
}

// Verify runs every shard's verify stage against that region's victim
// instances (regions absent from the map are skipped, reported with a zero
// coverage). Shards verify on the same bounded pool as Launch and results
// land in fleet order, so output is byte-identical for any worker count. The
// error of the lowest-indexed failing shard is returned.
func (fc *FleetCampaign) Verify(victims map[faas.Region][]*faas.Instance) ([]ShardVerification, error) {
	if !fc.launched {
		return nil, fmt.Errorf("attack: fleet Verify before Launch")
	}
	out := make([]ShardVerification, len(fc.shards))
	if err := par.For(len(fc.shards), fc.jobs, func(i int) error {
		sh := fc.shards[i]
		out[i].Region = sh.status.Region
		vic := victims[sh.status.Region]
		if len(vic) == 0 {
			return nil
		}
		var err error
		out[i].Coverage, out[i].Spies, err = sh.camp.Verify(vic)
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// MergeCoverages folds per-shard coverages into one fleet-wide measurement:
// counts add, AtLeastOne is the disjunction.
func MergeCoverages(covs ...Coverage) Coverage {
	var m Coverage
	for _, c := range covs {
		m.VictimTotal += c.VictimTotal
		m.VictimCovered += c.VictimCovered
		m.AtLeastOne = m.AtLeastOne || c.AtLeastOne
		m.AttackerHosts += c.AttackerHosts
		m.SharedHosts += c.SharedHosts
		m.Tests += c.Tests
		m.FingerprintPredicted += c.FingerprintPredicted
		m.Faults.ProbeRetries += c.Faults.ProbeRetries
		m.Faults.AttackersSkipped += c.Faults.AttackersSkipped
		m.Faults.VictimsSkipped += c.Faults.VictimsSkipped
	}
	return m
}

// Stats merges the per-shard ledgers into the fleet ledger.
func (fc *FleetCampaign) Stats() FleetStats {
	fs := FleetStats{
		Planner:    fc.planner.Name(),
		Strategy:   fc.strategy.Name(),
		Budget:     fc.budget,
		RoundsUsed: fc.rounds,
	}
	for _, sh := range fc.shards {
		fs.Shards = append(fs.Shards, sh.camp.Stats())
	}
	return fs
}
