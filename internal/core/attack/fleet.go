package attack

import (
	"fmt"

	"eaao/internal/faas"
	"eaao/internal/randx"
	"eaao/internal/sandbox"
)

// FleetCampaign runs one coordinated attack across every region of a
// faas.Fleet: one Campaign shard per region world, stepped in lockstep
// rounds, with a Planner reallocating the fleet's launch-round budget
// across shards at every round barrier. Shards execute on a bounded worker
// pool (SetJobs) — each shard's world is stepped only by its own goroutine,
// so the simulator stays single-threaded per world — and all coordination
// is synchronous and index-ordered, which makes the outcome byte-identical
// for any worker count.
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

// shardReport is what a paced shard tells the coordinator after each round.
type shardReport struct {
	round      int
	before     int
	cumulative int
}

// fleetShard is one region's campaign plus its coordination endpoints.
type fleetShard struct {
	index  int
	dc     *faas.DataCenter
	camp   *Campaign
	status ShardStatus

	// reports carries one shardReport per completed round and is closed
	// when the shard's Launch returns; grants answers each report; done
	// carries Launch's error after reports closes. All are buffered so a
	// shard never blocks on the coordinator mid-round.
	reports chan shardReport
	grants  chan bool
	done    chan error
	err     error
	cov     Coverage
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
// synchronize at a barrier after every round, where the planner decides
// which shards keep launching; unpaced strategies run straight through. It
// can run at most once; the first error of the lowest-indexed failing shard
// is returned, after all shards have shut down cleanly.
func (fc *FleetCampaign) Launch() error {
	if fc.launched {
		return fmt.Errorf("attack: fleet campaign already launched")
	}
	fc.launched = true

	prefix, paced := pacedPrefix(fc.strategy)
	workers := fc.jobs
	if workers <= 0 || workers > fc.fleet.Size() {
		workers = fc.fleet.Size()
	}
	sem := make(chan struct{}, workers)

	for i, dc := range fc.fleet.Shards() {
		sh := &fleetShard{
			index:   i,
			dc:      dc,
			reports: make(chan shardReport, 1),
			grants:  make(chan bool, 1),
			done:    make(chan error, 1),
		}
		sh.status.Region = dc.Region()
		strat := fc.strategy
		if paced {
			strat = &pacedStrategy{name: fc.strategy.Name(), prefix: prefix, sh: sh, sem: sem}
		}
		camp, err := NewCampaign(dc.Account(fc.account), fc.cfg, fc.gen, strat)
		if err != nil {
			return err
		}
		sh.camp = camp
		fc.shards = append(fc.shards, sh)
	}
	if paced {
		fc.budget = fc.fleet.Size() * fc.cfg.Launches
		fc.rounds = fc.fleet.Size() // every shard's first round is implicit
	}

	for _, sh := range fc.shards {
		go func(sh *fleetShard) {
			sem <- struct{}{}
			_, err := sh.camp.Launch()
			<-sem
			close(sh.reports)
			sh.done <- err
		}(sh)
	}

	fc.coordinate()

	for _, sh := range fc.shards {
		if sh.err != nil {
			return sh.err
		}
	}
	return nil
}

// coordinate is the planner loop: collect one report per active shard in
// index order, snapshot statuses, ask the planner for grants, answer the
// shards, and drain the ones that stop. Unpaced shards never report, so
// their first "report" is the channel close and the loop degenerates to a
// deterministic join.
func (fc *FleetCampaign) coordinate() {
	remaining := fc.budget - fc.rounds
	active := append([]*fleetShard(nil), fc.shards...)
	for len(active) > 0 {
		reporting := active[:0]
		for _, sh := range active {
			rep, ok := <-sh.reports
			if !ok {
				fc.release(sh)
				continue
			}
			sh.status.Rounds = rep.round
			sh.status.Before = rep.before
			sh.status.Grown = rep.cumulative - rep.before
			sh.status.Cumulative = rep.cumulative
			if rep.round == 1 {
				sh.status.FirstRound = sh.status.Grown
			}
			sh.status.USD = sh.camp.Stats().USD
			reporting = append(reporting, sh)
		}
		if len(reporting) == 0 {
			return
		}
		// A failed shard shuts the whole fleet down: remaining shards are
		// denied at their next barrier so every world stops at a clean
		// round boundary before the error propagates.
		failed := false
		for _, sh := range fc.shards {
			if sh.err != nil {
				failed = true
			}
		}
		var grants []bool
		if !failed {
			statuses := make([]ShardStatus, len(fc.shards))
			for i, sh := range fc.shards {
				statuses[i] = sh.status
			}
			grants = fc.planner.Plan(statuses, remaining)
		}
		var denied []*fleetShard
		next := 0
		for _, sh := range reporting {
			g := !failed && sh.index < len(grants) && grants[sh.index] && remaining > 0
			if g {
				remaining--
				fc.rounds++
			}
			sh.grants <- g
			if g {
				reporting[next] = sh
				next++
			} else {
				denied = append(denied, sh)
			}
		}
		for _, sh := range denied {
			<-sh.reports // closed once the shard's final keep/hold finishes
			fc.release(sh)
		}
		active = reporting[:next]
	}
}

// release joins a finished shard: records its error and marks it done for
// the planner.
func (fc *FleetCampaign) release(sh *fleetShard) {
	sh.err = <-sh.done
	sh.status.Finished = true
	sh.status.USD = sh.camp.Stats().USD
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
// coverage). Shards verify concurrently on the same bounded pool as Launch
// and results merge in fleet order, so output is byte-identical for any
// worker count. The error of the lowest-indexed failing shard is returned.
func (fc *FleetCampaign) Verify(victims map[faas.Region][]*faas.Instance) ([]ShardVerification, error) {
	if !fc.launched {
		return nil, fmt.Errorf("attack: fleet Verify before Launch")
	}
	workers := fc.jobs
	if workers <= 0 || workers > len(fc.shards) {
		workers = len(fc.shards)
	}
	sem := make(chan struct{}, workers)
	errs := make([]error, len(fc.shards))
	out := make([]ShardVerification, len(fc.shards))
	spies := make([][]*faas.Instance, len(fc.shards))
	wait := make(chan int, len(fc.shards))
	for i, sh := range fc.shards {
		out[i].Region = sh.dc.Region()
		vic := victims[sh.dc.Region()]
		if len(vic) == 0 {
			wait <- i
			continue
		}
		go func(i int, sh *fleetShard, vic []*faas.Instance) {
			sem <- struct{}{}
			cov, sp, err := sh.camp.Verify(vic)
			<-sem
			sh.cov = cov
			spies[i] = sp
			errs[i] = err
			wait <- i
		}(i, sh, vic)
	}
	for range fc.shards {
		<-wait
	}
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		out[i].Coverage = fc.shards[i].cov
		out[i].Spies = spies[i]
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

// pacedStrategy runs the launchRounds loop OptimizedStrategy and
// AdaptiveStrategy share, with the continue/stop decision externalized to
// the fleet coordinator: after launching every service once (one round), the
// shard reports its footprint growth and blocks until the planner grants or
// denies the next round. A denied shard keeps its last waves resident and
// holds them active; a granted shard holds, disconnects, and waits out the
// launch interval. Because the loop is the built-in strategies' own, the
// platform-visible operation sequence is identical to theirs for the same
// grant pattern, which is what the R=1 identity tests pin down.
type pacedStrategy struct {
	name   string
	prefix string
	sh     *fleetShard
	sem    chan struct{}
}

// Name implements LaunchStrategy. The paced wrapper answers with the base
// strategy's name so the campaign RNG derivation and the stats ledger are
// indistinguishable from a single-region run.
func (ps *pacedStrategy) Name() string { return ps.name }

// Launch implements LaunchStrategy.
func (ps *pacedStrategy) Launch(sink CampaignSink, acct *faas.Account, cfg Config, rng *randx.Source) error {
	return launchRounds(sink, cfg, ps.prefix, ps.barrier)
}

// barrier reports one completed round and blocks for the planner's verdict.
// The worker slot is released while blocked so other shards can step their
// worlds; both channels are buffered, so neither side can wedge the other
// mid-round.
func (ps *pacedStrategy) barrier(round, before, cumulative int) bool {
	<-ps.sem
	ps.sh.reports <- shardReport{round: round, before: before, cumulative: cumulative}
	cont := <-ps.sh.grants
	ps.sem <- struct{}{}
	return cont
}
