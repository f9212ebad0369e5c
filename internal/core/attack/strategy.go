package attack

import (
	"fmt"
	"time"

	"eaao/internal/faas"
	"eaao/internal/randx"
)

// Wave is one launch of one service as seen by a strategy: the instances it
// produced and the footprint bookkeeping the engine derived from them.
type Wave struct {
	// Service is the launched service's name.
	Service string
	// LaunchID is the 1-based launch counter within the service.
	LaunchID int
	// Instances are the connected instances this launch produced.
	Instances []*faas.Instance
	// Apparent is the number of apparent hosts in this wave alone.
	Apparent int
	// Cumulative is the campaign-wide apparent-host count after this wave.
	Cumulative int
}

// CampaignSink is the engine-side surface a LaunchStrategy drives its launch
// stage through. Every platform interaction a strategy needs flows through
// the sink (or the *faas.Service handles it hands out), which is how the
// engine keeps the launch records, footprint tracker, and stats ledger
// consistent no matter which strategy runs.
type CampaignSink interface {
	// Deploy creates (or re-uses) an attacker service under the campaign's
	// account and sandbox generation.
	Deploy(name string) *faas.Service
	// LaunchWave scales the service to the campaign's per-launch instance
	// count, fingerprints the batch into the campaign footprint, and appends
	// a LaunchRecord.
	LaunchWave(svc *faas.Service, launchID int) (Wave, error)
	// Keep marks instances as part of the campaign's resident footprint
	// (CampaignResult.Live). Keeping is separate from launching so a
	// strategy can decide what to retain after observing a wave's yield.
	Keep(insts []*faas.Instance)
	// Hold advances virtual time while launched instances stay connected —
	// the active time the attacker pays for.
	Hold(d time.Duration)
	// Footprint exposes the campaign's cumulative apparent-host tracker
	// (fingerprint-derived; no ground truth).
	Footprint() *FootprintTracker
}

// LaunchStrategy is a pluggable §5.2 launching behavior. A strategy receives
// the attacker account, the campaign configuration, and an RNG derived from
// the world seed and the strategy's identity (so randomized strategies stay
// deterministic per seed), and emits launch waves through the sink. The
// built-in NaiveStrategy and OptimizedStrategy never draw from the RNG,
// which keeps them byte-identical to the historical pre-engine launch loops.
type LaunchStrategy interface {
	// Name is the strategy's stable identity ("naive", "optimized", ...)
	// used by the CLI -strategy flag and the stats ledger.
	Name() string
	// Launch drives the campaign's launch stage.
	Launch(sink CampaignSink, acct *faas.Account, cfg Config, rng *randx.Source) error
}

// NaiveStrategy is Strategy 1: each service is launched once from a cold
// state and kept connected. The instances land on the account's base hosts
// only, so co-location succeeds only when base pools accidentally overlap.
type NaiveStrategy struct{}

// Name implements LaunchStrategy.
func (NaiveStrategy) Name() string { return "naive" }

// Launch implements LaunchStrategy.
func (NaiveStrategy) Launch(sink CampaignSink, acct *faas.Account, cfg Config, rng *randx.Source) error {
	for _, name := range serviceNames("naive", cfg.Services) {
		svc := sink.Deploy(name)
		w, err := sink.LaunchWave(svc, 1)
		if err != nil {
			return err
		}
		sink.Keep(w.Instances)
	}
	return nil
}

// OptimizedStrategy is Strategy 2: every service is launched Launches times
// at Interval spacing; after each launch the instances are held active for
// HoldActive (for measurement) and disconnected — except after the final
// launch, whose instances stay connected as the attack's resident footprint.
// The repeated launches keep each service in a high-demand state, so the
// load balancer spills replacement instances onto helper hosts.
type OptimizedStrategy struct{}

// Name implements LaunchStrategy.
func (OptimizedStrategy) Name() string { return "optimized" }

// Launch implements LaunchStrategy.
func (OptimizedStrategy) Launch(sink CampaignSink, acct *faas.Account, cfg Config, rng *randx.Source) error {
	return launchRounds(sink, cfg, "opt", func(round, _, _ int) bool {
		return round < cfg.Launches
	})
}

// DefaultAdaptiveMinYield is the marginal-yield floor AdaptiveStrategy stops
// at: a launch round must grow the apparent-host footprint by at least this
// fraction for the campaign to keep paying for further rounds.
const DefaultAdaptiveMinYield = 0.10

// AdaptiveStrategy launches like OptimizedStrategy but watches apparent-host
// growth per round (fingerprint footprint only — no ground truth) and stops
// as soon as a full round's marginal new-host yield falls below MinYield.
// Helper-host unlocking saturates after a few consecutive hot launches, so
// late rounds mostly re-walk hosts the footprint already contains; cutting
// them trades a sliver of coverage for their entire hold cost.
type AdaptiveStrategy struct {
	// MinYield is the minimum fractional footprint growth a round must
	// deliver for the campaign to continue; 0 means DefaultAdaptiveMinYield.
	MinYield float64
}

// Name implements LaunchStrategy.
func (AdaptiveStrategy) Name() string { return "adaptive" }

// Launch implements LaunchStrategy.
func (s AdaptiveStrategy) Launch(sink CampaignSink, acct *faas.Account, cfg Config, rng *randx.Source) error {
	minYield := s.MinYield
	if minYield <= 0 {
		minYield = DefaultAdaptiveMinYield
	}
	return launchRounds(sink, cfg, "adaptive", func(round, before, cumulative int) bool {
		return round < cfg.Launches &&
			(round == 1 || float64(cumulative-before) >= minYield*float64(before))
	})
}

// launchRounds is the §5.2 round loop shared by OptimizedStrategy and
// AdaptiveStrategy. After every round, more decides from the round number
// and the footprint before and after it whether another round follows.
func launchRounds(sink CampaignSink, cfg Config, prefix string,
	more func(round, before, cumulative int) bool) error {
	r := newRounds(sink, cfg, prefix)
	for {
		before, after, err := r.launch()
		if err != nil {
			return err
		}
		again := more(r.round, before, after)
		r.end(again)
		if !again {
			return nil
		}
	}
}

// rounds is the §5.2 round loop taken one step at a time, so a fleet campaign
// can decide between a round's launch and its end whether another follows.
// It deploys cfg.Services services named after prefix and launches each of
// them once per round.
type rounds struct {
	sink     CampaignSink
	cfg      Config
	services []*faas.Service
	waves    [][]*faas.Instance
	round    int
}

func newRounds(sink CampaignSink, cfg Config, prefix string) *rounds {
	r := &rounds{sink: sink, cfg: cfg, waves: make([][]*faas.Instance, 0, cfg.Services)}
	for _, name := range serviceNames(prefix, cfg.Services) {
		r.services = append(r.services, sink.Deploy(name))
	}
	return r
}

// launch runs the next round's waves and returns the footprint before and
// after them.
func (r *rounds) launch() (before, after int, err error) {
	r.round++
	before = r.sink.Footprint().Cumulative()
	r.waves = r.waves[:0]
	for _, svc := range r.services {
		w, err := r.sink.LaunchWave(svc, r.round)
		if err != nil {
			return 0, 0, err
		}
		r.waves = append(r.waves, w.Instances)
	}
	return before, r.sink.Footprint().Cumulative(), nil
}

// end closes the round just launched. The final round (more false) keeps
// its waves connected as the resident footprint and holds them active for
// HoldActive; any other round is held, disconnected, and the rest of the
// launch interval waited out, which keeps each service in a high-demand
// state for the next round.
func (r *rounds) end(more bool) {
	if !more {
		for _, insts := range r.waves {
			r.sink.Keep(insts)
		}
	}
	r.sink.Hold(r.cfg.HoldActive)
	if more {
		for _, svc := range r.services {
			svc.Disconnect()
		}
		if rest := r.cfg.Interval - r.cfg.HoldActive; rest > 0 {
			r.sink.Hold(rest)
		}
	}
}

// Strategies returns one instance of every built-in launch strategy, in
// presentation order.
func Strategies() []LaunchStrategy {
	return []LaunchStrategy{NaiveStrategy{}, OptimizedStrategy{}, AdaptiveStrategy{}}
}

// StrategyByName resolves a built-in strategy from its CLI name.
func StrategyByName(name string) (LaunchStrategy, error) {
	switch name {
	case "naive":
		return NaiveStrategy{}, nil
	case "optimized", "opt":
		return OptimizedStrategy{}, nil
	case "adaptive":
		return AdaptiveStrategy{}, nil
	}
	return nil, fmt.Errorf("attack: unknown strategy %q (naive, optimized, adaptive)", name)
}
