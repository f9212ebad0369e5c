package attack

import (
	"fmt"

	"eaao/internal/faas"
)

// ShardStatus is one region shard's observable state between rounds:
// everything a Planner may base budget decisions on. It contains only
// attacker-visible quantities (the fingerprint-derived footprint) — no
// platform ground truth.
type ShardStatus struct {
	// Region names the shard.
	Region faas.Region
	// Rounds is how many launch rounds the shard has completed.
	Rounds int
	// Before is the shard's cumulative apparent-host footprint entering its
	// latest round; Grown is what that round added; Cumulative is the
	// footprint after it. Grown/Before is AdaptiveStrategy's marginal-yield
	// signal, generalized here to a cross-region allocation input.
	Before     int
	Grown      int
	Cumulative int
	// FirstRound is the apparent-host yield of the shard's first round — a
	// region-size proxy available to every planner after one round.
	FirstRound int
	// Finished marks shards that will run no further rounds (denied one,
	// or failed); planners must not grant them budget.
	Finished bool
}

// Planner decides, at each cross-region barrier, which shards' campaigns
// get another launch round. The fleet's round budget is R × Launches total
// rounds (what R independent optimized campaigns would spend); every
// shard's first round is granted implicitly, each further grant consumes
// one round, and remaining is what is left. Plan returns one grant per
// status entry; the coordinator clamps grants to the remaining budget in
// shard order. Planners must be stateless functions of their inputs — the
// same statuses and remaining budget must always produce the same grants —
// which is what keeps a fleet campaign byte-identical for any worker count.
type Planner interface {
	// Name is the planner's stable identity ("static-even", ...), used by
	// the CLI -planner flag and the fleet ledger.
	Name() string
	// Plan returns, for each shard, whether it gets another round.
	Plan(status []ShardStatus, remaining int) []bool
}

// roundBudget reconstructs the fleet's total round budget from a barrier
// snapshot: every completed round consumed one budget unit, so the total is
// what is left plus what was spent. Keeping planners stateless this way
// means a Plan call can always be replayed from its arguments alone.
func roundBudget(status []ShardStatus, remaining int) int {
	total := remaining
	for _, s := range status {
		total += s.Rounds
	}
	return total
}

// StaticEvenPlanner splits the round budget evenly: every shard runs
// exactly Launches rounds, none reacts to observed yield. It is the
// baseline budget-split policy — R independent OptimizedStrategy campaigns
// — and with one shard it reproduces OptimizedStrategy byte for byte.
type StaticEvenPlanner struct{}

// Name implements Planner.
func (StaticEvenPlanner) Name() string { return "static-even" }

// Plan implements Planner.
func (StaticEvenPlanner) Plan(status []ShardStatus, remaining int) []bool {
	// Even largest-remainder split of the total budget; earlier shards
	// absorb any indivisible remainder. With the coordinator's R × Launches
	// budget this is exactly Launches rounds per shard.
	total := roundBudget(status, remaining)
	share := total / len(status)
	extra := total % len(status)
	grants := make([]bool, len(status))
	for i, s := range status {
		target := share
		if i < extra {
			target++
		}
		grants[i] = !s.Finished && s.Rounds < target
	}
	return grants
}

// ProportionalPlanner splits the round budget proportionally to each
// shard's first-round apparent-host yield: bigger regions (more hosts
// reachable per wave) get more rounds. The split is decided from round-1
// information only and never revisited — a cheap middle ground between
// static-even and the adaptive planner.
type ProportionalPlanner struct{}

// Name implements Planner.
func (ProportionalPlanner) Name() string { return "proportional" }

// Plan implements Planner.
func (ProportionalPlanner) Plan(status []ShardStatus, remaining int) []bool {
	targets := proportionalTargets(status, roundBudget(status, remaining))
	grants := make([]bool, len(status))
	for i, s := range status {
		grants[i] = !s.Finished && s.Rounds < targets[i]
	}
	return grants
}

// proportionalTargets allocates total rounds across shards proportionally
// to FirstRound yield by largest remainder: one guaranteed round each (the
// implicit first round), the rest split by weight, fractional leftovers
// going to the largest remainders (ties to the lower shard index). A
// zero-yield shard keeps only its first round.
func proportionalTargets(status []ShardStatus, total int) []int {
	n := len(status)
	targets := make([]int, n)
	var weight float64
	for _, s := range status {
		weight += float64(s.FirstRound)
	}
	spare := total - n // beyond the guaranteed first rounds
	if spare < 0 {
		spare = 0
	}
	rem := make([]float64, n)
	allocated := 0
	for i, s := range status {
		targets[i] = 1
		if weight <= 0 {
			continue
		}
		exact := float64(spare) * float64(s.FirstRound) / weight
		whole := int(exact)
		targets[i] += whole
		rem[i] = exact - float64(whole)
		allocated += whole
	}
	if weight <= 0 {
		// No signal to split on: fall back to an even spread.
		for i := range targets {
			targets[i] += spare / n
			if i < spare%n {
				targets[i]++
			}
		}
		return targets
	}
	for spare > allocated {
		best := -1
		for i := range rem {
			if best < 0 || rem[i] > rem[best] {
				best = i
			}
		}
		targets[best]++
		rem[best] = -1
		allocated++
	}
	return targets
}

// CrossRegionPlanner generalizes AdaptiveStrategy's early-stop rule into a
// budget reallocator: a shard whose latest round grew its footprint by less
// than MinYield of what it already had is dry — its remaining budget is
// released and flows to the shards still yielding, in order of observed
// marginal yield. A yielding shard can therefore run more than Launches
// rounds when a sibling dries up early; a shard that never yields is
// drained to zero extra rounds. With one shard the release rule reduces
// exactly to AdaptiveStrategy.
type CrossRegionPlanner struct {
	// MinYield is the minimum fractional footprint growth a round must
	// deliver for its shard to stay funded; 0 means
	// DefaultAdaptiveMinYield.
	MinYield float64
}

// Name implements Planner.
func (CrossRegionPlanner) Name() string { return "adaptive" }

// Plan implements Planner.
func (p CrossRegionPlanner) Plan(status []ShardStatus, remaining int) []bool {
	minYield := p.MinYield
	if minYield <= 0 {
		minYield = DefaultAdaptiveMinYield
	}
	grants := make([]bool, len(status))
	if remaining <= 0 {
		return grants
	}
	// Fund yielding shards in priority order — highest latest-round yield
	// first, shard index breaking ties — until the budget runs out.
	order := make([]int, 0, len(status))
	for i, s := range status {
		if s.Finished {
			continue
		}
		// AdaptiveStrategy's stop rule, per shard: after the first round, a
		// round must grow the footprint by MinYield of its prior size.
		if s.Rounds > 1 && float64(s.Grown) < minYield*float64(s.Before) {
			continue
		}
		order = append(order, i)
	}
	for a := 1; a < len(order); a++ {
		for b := a; b > 0; b-- {
			i, j := order[b-1], order[b]
			if status[j].Grown > status[i].Grown {
				order[b-1], order[b] = j, i
			}
		}
	}
	for n, i := range order {
		if n >= remaining {
			break
		}
		grants[i] = true
	}
	return grants
}

// Planners returns one instance of every built-in budget planner, in
// presentation order.
func Planners() []Planner {
	return []Planner{StaticEvenPlanner{}, ProportionalPlanner{}, CrossRegionPlanner{}}
}

// PlannerByName resolves a built-in planner from its CLI name.
func PlannerByName(name string) (Planner, error) {
	switch name {
	case "static-even", "static", "even":
		return StaticEvenPlanner{}, nil
	case "proportional", "prop":
		return ProportionalPlanner{}, nil
	case "adaptive", "cross-region":
		return CrossRegionPlanner{}, nil
	}
	return nil, fmt.Errorf("attack: unknown planner %q (static-even, proportional, adaptive)", name)
}
