// Package covert implements the n-way covert-channel co-location test
// primitive CTest of §4.3, built on contention of the host's hardware random
// number generator (RNG).
//
// All n instances under test simultaneously hammer the RNG and measure the
// contention level they observe. Because the RNG is rarely used by anyone
// else (<1% background activity), an instance observing contention of at
// least m units must share its host with at least m−1 other participants.
// One test therefore classifies all n instances at once:
//
//	CTest(i1..in) → {b1..bn},  bi = "instance i observed ≥ m units
//	                            in at least half of the rounds"
//
// With m = 2 and at most 2m−1 = 3 instances per test, a positive outcome is
// unambiguous: all positive instances share one host. The coloc package
// builds the scalable verification methodology on top of this primitive.
package covert

import (
	"fmt"
	"math"
	"slices"
	"time"

	"eaao/internal/faas"
	"eaao/internal/simtime"
)

// Config parameterizes the covert-channel tests.
type Config struct {
	// Resource is the shared hardware resource pressured by the test; the
	// zero value is the paper's low-noise RNG channel.
	Resource faas.Resource
	// Rounds is the number of contention measurements per test.
	Rounds int
	// VoteThreshold is the number of rounds that must observe contention
	// for the instance to test positive (the paper requires 30 of 60).
	VoteThreshold int
	// TestDuration is the wall-clock cost of one CTest (the paper assumes
	// ~100 ms per test when costing the conventional approach).
	TestDuration time.Duration
	// VoteBudget is the majority-vote repetition count of each CTest: the
	// whole test is repeated up to VoteBudget times and an instance's final
	// verdict is the majority of the per-repetition verdicts. 0 or 1 runs
	// the single-shot test, byte-identical to a budget-free build. Useful
	// against time-correlated channel corruption (the fault plane's misfire
	// windows span one whole test but repetitions re-draw independently).
	VoteBudget int
}

// DefaultConfig returns the paper's parameters: the RNG channel, 60 rounds,
// 30 votes, 100 ms per test.
func DefaultConfig() Config {
	return Config{Rounds: 60, VoteThreshold: 30, TestDuration: 100 * time.Millisecond}
}

// MemBusConfig returns a configuration for the memory-bus channel of the
// earlier co-location studies [62, 59]: the frequent background traffic
// demands a much higher vote threshold, and a test takes seconds instead of
// 100 ms (Varadarajan et al. report several seconds per pairwise test).
func MemBusConfig() Config {
	return Config{
		Resource:      faas.ResourceMemBus,
		Rounds:        60,
		VoteThreshold: 48,
		TestDuration:  3 * time.Second,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case !c.Resource.Valid():
		return fmt.Errorf("covert: unknown channel resource %d", int(c.Resource))
	case c.Rounds <= 0:
		return fmt.Errorf("covert: Rounds must be positive")
	case c.VoteThreshold <= 0 || c.VoteThreshold > c.Rounds:
		return fmt.Errorf("covert: VoteThreshold must be in [1, Rounds]")
	case c.TestDuration <= 0:
		return fmt.Errorf("covert: TestDuration must be positive")
	case c.VoteBudget < 0:
		return fmt.Errorf("covert: VoteBudget must be non-negative")
	}
	return nil
}

// Verdict is the single verdict path of the covert channel: it converts the
// number of rounds in which an instance observed sufficient contention into
// the test outcome. Centralizing it pins the robustness property the test
// relies on — with VoteThreshold at half the rounds (the paper's 30 of 60),
// no single corrupted round can flip a verdict and silently merge two host
// groups; only sustained corruption can.
func (c Config) Verdict(votes int) bool { return votes >= c.VoteThreshold }

// Stats accumulates the cost of the covert-channel activity: how many tests
// ran and how much serialized wall-clock time they consumed. The coloc
// package uses these to reproduce the §4.3 cost comparison.
type Stats struct {
	Tests        int
	PairsTested  int
	InstanceTime time.Duration // Σ over tests of (participants × duration)
}

// TestEvent describes one completed CTest for an observer.
type TestEvent struct {
	// Channel names the covert channel the test ran on ("rng", "membus",
	// "llc") — the per-channel dimension of cost ledgers.
	Channel string
	// Participants is the number of instances under test.
	Participants int
	// Positives is how many of them tested positive.
	Positives int
	// Duration is the virtual wall-clock the test consumed.
	Duration time.Duration
	// Repetition is the majority-vote repetition index of this test: 0 for
	// the first (or only) run, k for the k-th re-vote under a VoteBudget.
	// Observers meter fault-recovery spend by counting nonzero repetitions.
	Repetition int
	// MinMargin is the health of the test's least decisive verdict: the
	// minimum over participants of |votes − VoteThreshold| / Rounds. A
	// margin near zero means some participant's verdict hovered at the
	// threshold — the signature of a channel degrading under noise, and what
	// noise-hardened campaigns key their escalation on.
	MinMargin float64
}

// Sink observes every CTest a Tester runs (PairTest included, since it is a
// two-instance CTest). The attack campaign engine uses a sink to charge
// covert-channel spend to its per-stage cost ledger without wrapping the
// tester.
type Sink interface {
	ObserveTest(TestEvent)
}

// Tester executes CTest invocations against the simulated platform,
// advancing the virtual clock for each test and accounting costs. It drives
// one or more channel configs: with several, every CTest runs once per
// channel and each instance's final verdict is the majority of the
// per-channel verdicts, so corruption confined to one resource family — a
// targeted misfire storm, a busy LLC — is outvoted by the healthy channels,
// at the cost of paying every channel's test duration.
type Tester struct {
	cfgs []Config
	// cfg is what Config reports: the first channel's config with
	// TestDuration summed over every channel (the wall cost of one test).
	cfg   Config
	sched *simtime.Scheduler
	stats Stats
	sink  Sink

	// votes is per-test scratch reused across CTests: each execution's
	// per-instance tally of contended rounds. pair backs PairTest's
	// two-instance participant list; repWins and chWins count the majority
	// votes across repetitions and across channels.
	votes   []int
	pair    [2]*faas.Instance
	repWins []int
	chWins  []int
}

// NewTester builds a Tester over the given channel configs, in order. It
// panics on no configs, an invalid one, or configs disagreeing on
// VoteBudget, which are always programming errors at this layer.
func NewTester(sched *simtime.Scheduler, cfgs ...Config) *Tester {
	if len(cfgs) == 0 {
		panic("covert: NewTester needs at least one channel config")
	}
	t := &Tester{cfgs: slices.Clone(cfgs), cfg: cfgs[0], sched: sched}
	t.cfg.TestDuration = 0
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			panic(err)
		}
		if c.VoteBudget != cfgs[0].VoteBudget {
			panic("covert: channel configs disagree on VoteBudget")
		}
		t.cfg.TestDuration += c.TestDuration
	}
	return t
}

// Config returns the first channel's configuration with TestDuration summed
// over every channel: verification layers read TestDuration as the wall
// cost of one CTest.
func (t *Tester) Config() Config { return t.cfg }

// Channels returns the per-channel configurations, in test order.
func (t *Tester) Channels() []Config { return slices.Clone(t.cfgs) }

// Stats returns the accumulated cost counters.
func (t *Tester) Stats() Stats { return t.stats }

// ResetStats zeroes the cost counters.
func (t *Tester) ResetStats() { t.stats = Stats{} }

// SetSink installs (or, with nil, removes) an observer notified after every
// channel execution of a CTest. Observation is free of platform side
// effects: the sink sees an event after the clock already advanced.
func (t *Tester) SetSink(s Sink) { t.sink = s }

// CTest runs one n-way covert-channel test with contention threshold m.
// On each channel, instance i tests positive when it observed at least m
// units of contention in at least VoteThreshold rounds; every execution
// advances the virtual clock by the channel's TestDuration. m must be at
// least 2: an instance always observes its own unit, so m = 1 would make
// every test positive.
//
// With VoteBudget > 1 each channel's test is repeated that many times, one
// TestDuration apart, and an instance's channel verdict is the majority of
// its per-repetition verdicts. Repetition is what recovers from
// time-correlated channel corruption: a misfire window flips at most one
// repetition, not the majority. The final verdict is the majority across
// channels.
func (t *Tester) CTest(instances []*faas.Instance, m int) ([]bool, error) {
	if err := t.vote(instances, m); err != nil {
		return nil, err
	}
	out := make([]bool, len(instances))
	for i := range out {
		out[i] = t.positive(i)
	}
	return out, nil
}

// vote runs CTest's executions and leaves each instance's channel-majority
// win count in t.chWins; positive reads the final verdict off it. PairTest
// reads verdicts there directly, so it allocates no result slice.
func (t *Tester) vote(instances []*faas.Instance, m int) error {
	if m < 2 {
		return fmt.Errorf("covert: contention threshold m=%d, need m >= 2", m)
	}
	n := len(instances)
	if n == 0 {
		return fmt.Errorf("covert: CTest of zero instances")
	}
	t.votes = resetScratch(t.votes, n)
	t.repWins = resetScratch(t.repWins, n)
	t.chWins = resetScratch(t.chWins, n)
	reps := max(t.cfg.VoteBudget, 1)
	for _, cfg := range t.cfgs {
		clear(t.repWins)
		for rep := 0; rep < reps; rep++ {
			if err := t.run(cfg, instances, m, rep); err != nil {
				return err
			}
		}
		for i, w := range t.repWins {
			if 2*w > reps {
				t.chWins[i]++
			}
		}
	}
	t.stats.Tests += reps
	t.stats.PairsTested += reps * n * (n - 1) / 2
	t.stats.InstanceTime += time.Duration(reps*n) * t.cfg.TestDuration
	return nil
}

// positive is instance i's final verdict of the last vote: the majority
// across channels.
func (t *Tester) positive(i int) bool { return 2*t.chWins[i] > len(t.cfgs) }

// run is one un-voted test execution on one channel: it adds the
// repetition's positive verdicts to repWins and reports the execution to
// the sink, labelled with its channel and repetition index.
func (t *Tester) run(cfg Config, instances []*faas.Instance, m, rep int) error {
	if err := faas.ContentionRounds(cfg.Resource, instances, cfg.Rounds, m, t.votes, nil); err != nil {
		return err
	}
	t.sched.Advance(cfg.TestDuration)

	positives := 0
	minMargin := 1.0
	for i, v := range t.votes {
		if cfg.Verdict(v) {
			t.repWins[i]++
			positives++
		}
		if margin := math.Abs(float64(v)-float64(cfg.VoteThreshold)) / float64(cfg.Rounds); margin < minMargin {
			minMargin = margin
		}
	}
	if t.sink != nil {
		t.sink.ObserveTest(TestEvent{
			Channel:      cfg.Resource.String(),
			Participants: len(instances),
			Positives:    positives,
			Duration:     cfg.TestDuration,
			Repetition:   rep,
			MinMargin:    minMargin,
		})
	}
	return nil
}

// resetScratch returns buf resized to n zeroed entries, growing it only
// when its capacity is short.
func resetScratch(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// PairTest is the conventional pairwise covert-channel test: it reports
// whether the two instances are co-located. It allocates nothing.
func (t *Tester) PairTest(a, b *faas.Instance) (bool, error) {
	t.pair[0], t.pair[1] = a, b
	if err := t.vote(t.pair[:], 2); err != nil {
		return false, err
	}
	return t.positive(0) && t.positive(1), nil
}

// MaxGroupSize returns the largest group CTest can classify unambiguously at
// threshold m: with 2m−1 or fewer instances, any positive set of size ≥ m
// must share a single host (§4.3).
func MaxGroupSize(m int) int { return 2*m - 1 }
