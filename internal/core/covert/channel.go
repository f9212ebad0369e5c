package covert

import (
	"fmt"
	"time"

	"eaao/internal/faas"
	"eaao/internal/simtime"
)

// This file makes the covert channel a pluggable primitive, the third leg of
// the repo's plug-in architecture next to placement policies and launch
// strategies: a Channel bundles a contention resource with the CTest
// configuration tuned for its noise character, a Runner is the full testing
// surface verification consumes, and MultiTester majority-combines several
// channels so that corruption confined to one resource family is outvoted by
// the healthy ones.

// Channel is one pluggable covert-channel primitive: a named contention
// resource plus the CTest configuration tuned for its bandwidth and noise.
type Channel interface {
	// Name identifies the channel ("rng", "membus", "llc").
	Name() string
	// Config returns the channel's tuned CTest configuration.
	Config() Config
	// Round executes one synchronized contention round among the given
	// participants, writing observations into out (grown as needed).
	Round(parts []*faas.Instance, out []int) ([]int, error)
}

// resourceChannel is a Channel backed by one faas shared-resource family.
type resourceChannel struct {
	res faas.Resource
	cfg Config
}

func (c resourceChannel) Name() string   { return c.res.String() }
func (c resourceChannel) Config() Config { return c.cfg }
func (c resourceChannel) Round(parts []*faas.Instance, out []int) ([]int, error) {
	return faas.ContentionRoundOnInto(c.res, parts, out)
}

// RNGChannel returns the paper's hardware-RNG channel (§4.3), the low-noise
// default every historical experiment runs on.
func RNGChannel() Channel { return resourceChannel{faas.ResourceRNG, DefaultConfig()} }

// MemBusChannel returns the memory-bus channel of the earlier co-location
// studies: slow but serviceable, load-insensitive in this model.
func MemBusChannel() Channel { return resourceChannel{faas.ResourceMemBus, MemBusConfig()} }

// LLCChannel returns the last-level-cache contention channel (Zhao &
// Fletcher): 5× faster tests than the RNG, but error rates that grow with
// bystander load on the host.
func LLCChannel() Channel { return resourceChannel{faas.ResourceLLC, LLCConfig()} }

// LLCConfig returns a configuration for the LLC channel: a test costs 20 ms
// instead of the RNG's 100, but background evictions are common (4% on a
// quiet host, worse with every bystander tenant), so the vote threshold sits
// well above half to keep loaded hosts from voting their way to false
// positives.
func LLCConfig() Config {
	return Config{
		Resource:      faas.ResourceLLC,
		Rounds:        60,
		VoteThreshold: 36,
		TestDuration:  20 * time.Millisecond,
	}
}

// CombinedChannelName selects the majority-combined multi-channel tester in
// RunnerFor and the CLI's -channel flag; it is a Runner, not a Channel.
const CombinedChannelName = "combined"

// ChannelNames lists every name RunnerFor resolves (the empty string, the
// default, is the RNG channel).
func ChannelNames() []string { return []string{"rng", "llc", "membus", CombinedChannelName} }

// ValidChannel reports whether name resolves in RunnerFor.
func ValidChannel(name string) bool {
	switch name {
	case "", "rng", "llc", "membus", CombinedChannelName:
		return true
	}
	return false
}

// ChannelByName resolves a single-channel primitive from its name. The empty
// string resolves to the default RNG channel; "combined" is not a Channel —
// use RunnerFor for it.
func ChannelByName(name string) (Channel, error) {
	switch name {
	case "", "rng":
		return RNGChannel(), nil
	case "llc":
		return LLCChannel(), nil
	case "membus":
		return MemBusChannel(), nil
	}
	return nil, fmt.Errorf("covert: unknown channel %q (rng, llc, membus)", name)
}

// Runner is the pluggable covert-channel testing surface: everything
// verification (coloc.Tester) consumes plus the sink/stats hooks the attack
// campaign charges its ledger through. *Tester and *MultiTester both satisfy
// it.
type Runner interface {
	CTest(instances []*faas.Instance, m int) ([]bool, error)
	PairTest(a, b *faas.Instance) (bool, error)
	Config() Config
	Stats() Stats
	ResetStats()
	SetSink(Sink)
}

// RunnerFor resolves a channel selector to a ready Runner: "" or "rng" (the
// byte-identical historical default), "llc", "membus", or "combined" (a
// MultiTester majority-combining rng, llc and membus). voteBudget applies
// per channel.
func RunnerFor(name string, sched *simtime.Scheduler, voteBudget int) (Runner, error) {
	if name == CombinedChannelName {
		return NewMultiTester(sched, voteBudget, RNGChannel(), LLCChannel(), MemBusChannel()), nil
	}
	ch, err := ChannelByName(name)
	if err != nil {
		return nil, fmt.Errorf("covert: unknown channel %q (rng, llc, membus, combined)", name)
	}
	cfg := ch.Config()
	cfg.VoteBudget = voteBudget
	return NewChannelTester(sched, ch, cfg), nil
}

// NewChannelTester builds a Tester driving the given channel primitive with
// an explicit configuration (usually the channel's own, possibly with a
// VoteBudget applied). It panics on an invalid config, like NewTester.
func NewChannelTester(sched *simtime.Scheduler, ch Channel, cfg Config) *Tester {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Tester{cfg: cfg, sched: sched, ch: ch}
}

// CalibratedRunnerFor resolves a channel selector exactly like RunnerFor but
// re-derives every member channel's vote threshold against the live world:
// the probe instance samples each channel's background rate over sampleRounds
// solo rounds (CalibrateChannel) and the threshold comes from the measurement
// instead of the quiet-world constant. On a busy host the measured background
// includes real bystander noise, so the derived threshold is the one an
// attacker operating in a living cloud would actually use. It fails when a
// channel's background is too high to separate (CalibrateChannel's error).
func CalibratedRunnerFor(name string, sched *simtime.Scheduler, probe *faas.Instance, sampleRounds, voteBudget int) (Runner, error) {
	calibrated := func(ch Channel) (*Tester, error) {
		cfg, err := CalibrateChannel(ch, probe, sampleRounds)
		if err != nil {
			return nil, err
		}
		cfg.VoteBudget = voteBudget
		return NewChannelTester(sched, ch, cfg), nil
	}
	if name == CombinedChannelName {
		children := make([]*Tester, 0, 3)
		for _, ch := range []Channel{RNGChannel(), LLCChannel(), MemBusChannel()} {
			t, err := calibrated(ch)
			if err != nil {
				return nil, err
			}
			children = append(children, t)
		}
		return multiFromChildren(children), nil
	}
	ch, err := ChannelByName(name)
	if err != nil {
		return nil, fmt.Errorf("covert: unknown channel %q (rng, llc, membus, combined)", name)
	}
	return calibrated(ch)
}

// Rebudgeter is implemented by runners that can clone themselves at a new
// majority-vote budget while preserving their channels and (possibly
// calibrated) thresholds — the hook noise-hardened campaigns escalate
// through when a channel's margins collapse under load.
type Rebudgeter interface {
	Rebudget(voteBudget int) Runner
}

// Rebudget returns a new Tester on the same channel and configuration with
// the vote budget replaced. Accumulated stats and the sink do not carry over.
func (t *Tester) Rebudget(voteBudget int) Runner {
	cfg := t.cfg
	cfg.VoteBudget = voteBudget
	return NewChannelTester(t.sched, t.ch, cfg)
}

// MultiTester is the majority-combined multi-channel tester: every CTest
// runs once per member channel and each instance's final verdict is the
// majority of the per-channel verdicts. Corruption confined to one resource
// family — a targeted misfire storm, a busy LLC — is outvoted by the healthy
// channels, at the cost of paying every channel's test duration.
type MultiTester struct {
	children []*Tester
	combined Config
	stats    Stats
	wins     []int
	pair     [2]*faas.Instance
}

// NewMultiTester builds a MultiTester over the given channels, each wrapped
// in its own Tester with the channel's tuned configuration plus voteBudget.
func NewMultiTester(sched *simtime.Scheduler, voteBudget int, chs ...Channel) *MultiTester {
	if len(chs) == 0 {
		panic("covert: MultiTester needs at least one channel")
	}
	children := make([]*Tester, 0, len(chs))
	for _, ch := range chs {
		cfg := ch.Config()
		cfg.VoteBudget = voteBudget
		children = append(children, NewChannelTester(sched, ch, cfg))
	}
	return multiFromChildren(children)
}

// multiFromChildren assembles a MultiTester around already-built member
// testers (NewMultiTester's tail, shared with the calibrated and re-budgeted
// construction paths).
func multiFromChildren(children []*Tester) *MultiTester {
	m := &MultiTester{children: children}
	// The combined Config is synthetic: verification layers read only
	// TestDuration (the wall cost of one combined test, the sum over
	// channels), so the remaining fields come from the first channel.
	m.combined = m.children[0].Config()
	m.combined.TestDuration = 0
	for _, c := range m.children {
		m.combined.TestDuration += c.Config().TestDuration
	}
	return m
}

// Children returns the per-channel member testers; their Stats split the
// combined cost by channel.
func (m *MultiTester) Children() []*Tester { return m.children }

// Config returns the synthetic combined configuration (TestDuration is the
// per-test wall cost summed over member channels).
func (m *MultiTester) Config() Config { return m.combined }

// Stats returns the combined-test counters: Tests counts combined
// invocations (each of which ran one CTest per member channel).
func (m *MultiTester) Stats() Stats { return m.stats }

// ResetStats zeroes the combined and per-channel counters.
func (m *MultiTester) ResetStats() {
	m.stats = Stats{}
	for _, c := range m.children {
		c.ResetStats()
	}
}

// SetSink installs the observer on every member tester, so the sink sees one
// channel-labeled event per member per combined test. MultiTester emits no
// synthetic event of its own — observers meter true per-channel executions.
func (m *MultiTester) SetSink(s Sink) {
	for _, c := range m.children {
		c.SetSink(s)
	}
}

// CTest runs the combined test: one CTest per member channel, each advancing
// the clock by its own TestDuration, and a per-instance majority across the
// per-channel verdicts.
func (m *MultiTester) CTest(instances []*faas.Instance, thresh int) ([]bool, error) {
	if cap(m.wins) < len(instances) {
		m.wins = make([]int, len(instances))
	}
	wins := m.wins[:len(instances)]
	for i := range wins {
		wins[i] = 0
	}
	for _, c := range m.children {
		res, err := c.CTest(instances, thresh)
		if err != nil {
			return nil, err
		}
		for i, positive := range res {
			if positive {
				wins[i]++
			}
		}
	}
	out := make([]bool, len(instances))
	for i, w := range wins {
		out[i] = 2*w > len(m.children)
	}
	m.stats.Tests++
	m.stats.PairsTested += len(instances) * (len(instances) - 1) / 2
	m.stats.InstanceTime += time.Duration(len(instances)) * m.combined.TestDuration
	return out, nil
}

// Rebudget returns a new MultiTester whose member testers share channels and
// thresholds with this one but carry the new vote budget.
func (m *MultiTester) Rebudget(voteBudget int) Runner {
	children := make([]*Tester, len(m.children))
	for i, c := range m.children {
		cfg := c.cfg
		cfg.VoteBudget = voteBudget
		children[i] = NewChannelTester(c.sched, c.ch, cfg)
	}
	return multiFromChildren(children)
}

// PairTest reports whether the two instances are co-located by combined
// majority.
func (m *MultiTester) PairTest(a, b *faas.Instance) (bool, error) {
	m.pair[0], m.pair[1] = a, b
	res, err := m.CTest(m.pair[:], 2)
	if err != nil {
		return false, err
	}
	return res[0] && res[1], nil
}
