package covert

import (
	"fmt"
	"slices"
	"time"

	"eaao/internal/faas"
	"eaao/internal/simtime"
)

// This file makes the covert channel a pluggable primitive, the third leg of
// the repo's plug-in architecture next to placement policies and launch
// strategies: a channel is a contention resource plus the CTest Config
// tuned for its noise character, RunnerFor resolves a channel name to a
// Tester over one or more of them, and a Runner is the full testing surface
// verification consumes.

// LLCConfig returns a configuration for the last-level-cache contention
// channel (Zhao & Fletcher): a test costs 20 ms instead of the RNG's 100,
// but background evictions are common (4% on a quiet host, worse with every
// bystander tenant), so the vote threshold sits well above half to keep
// loaded hosts from voting their way to false positives.
func LLCConfig() Config {
	return Config{
		Resource:      faas.ResourceLLC,
		Rounds:        60,
		VoteThreshold: 36,
		TestDuration:  20 * time.Millisecond,
	}
}

// CombinedChannelName selects the majority-combined tester over the rng,
// llc and membus channels in RunnerFor and the CLI's -channel flag.
const CombinedChannelName = "combined"

// ChannelNames lists every name RunnerFor resolves (the empty string, the
// default, is the RNG channel).
func ChannelNames() []string { return []string{"rng", "llc", "membus", CombinedChannelName} }

// ValidChannel reports whether name resolves in RunnerFor.
func ValidChannel(name string) bool { return name == "" || slices.Contains(ChannelNames(), name) }

// Runner is the pluggable covert-channel testing surface: everything
// verification (coloc.Tester) consumes plus the sink/stats hooks the attack
// campaign charges its ledger through. *Tester satisfies it; wrappers (a
// tracing runner, say) forward to one.
type Runner interface {
	CTest(instances []*faas.Instance, m int) ([]bool, error)
	PairTest(a, b *faas.Instance) (bool, error)
	Config() Config
	Stats() Stats
	ResetStats()
	SetSink(Sink)
}

// RunnerFor resolves a channel selector to a ready Tester: "" or "rng" (the
// byte-identical historical default), "llc", "membus", or "combined" (the
// majority of rng, llc and membus). voteBudget applies per channel.
func RunnerFor(name string, sched *simtime.Scheduler, voteBudget int) (*Tester, error) {
	var cfgs []Config
	switch name {
	case "", "rng":
		cfgs = []Config{DefaultConfig()}
	case "llc":
		cfgs = []Config{LLCConfig()}
	case "membus":
		cfgs = []Config{MemBusConfig()}
	case CombinedChannelName:
		cfgs = []Config{DefaultConfig(), LLCConfig(), MemBusConfig()}
	default:
		return nil, fmt.Errorf("covert: unknown channel %q (rng, llc, membus, combined)", name)
	}
	for i := range cfgs {
		cfgs[i].VoteBudget = voteBudget
	}
	return NewTester(sched, cfgs...), nil
}

// Calibrated returns a new Tester on the same channels whose vote thresholds
// are re-derived against the live world: the probe instance samples each
// channel's background rate over sampleRounds solo rounds (CalibrateChannel),
// in channel order, and the threshold comes from the measurement instead of
// the quiet-world constant. On a busy host the measured background includes
// real bystander noise, so the derived threshold is the one an attacker
// operating in a living cloud would actually use. It fails when a channel's
// background is too high to separate (CalibrateChannel's error).
func (t *Tester) Calibrated(probe *faas.Instance, sampleRounds int) (*Tester, error) {
	cfgs := make([]Config, len(t.cfgs))
	for i, base := range t.cfgs {
		cfg, err := CalibrateChannel(base, probe, sampleRounds)
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
	}
	return NewTester(t.sched, cfgs...), nil
}

// Rebudget returns a new Tester on the same channels and (possibly
// calibrated) thresholds with the vote budget replaced — the hook
// noise-hardened campaigns escalate through when a channel's margins
// collapse under load. Accumulated stats and the sink do not carry over.
func (t *Tester) Rebudget(voteBudget int) *Tester {
	cfgs := t.Channels()
	for i := range cfgs {
		cfgs[i].VoteBudget = voteBudget
	}
	return NewTester(t.sched, cfgs...)
}
