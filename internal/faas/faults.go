package faas

import (
	"errors"
	"fmt"
	"time"

	"eaao/internal/sandbox"
)

// This file is the platform's fault plane: a seeded, deterministic layer of
// injected failures modeling the flakiness the paper measured against on the
// real cloud — launches that are rejected or die mid-flight, instances
// preempted under the attacker, covert-channel rounds that misfire, and
// fingerprint probes that fail outright. Every fault is drawn from dedicated
// randx sub-streams (derived once per data center, disjoint from every
// placement and noise stream), so a faulty world is exactly as reproducible
// as a healthy one — and a zero-valued FaultPlan draws nothing at all,
// leaving the simulation byte-identical to a build without the fault plane.

// ErrLaunchFault marks a launch that failed for a transient platform reason
// (injected rejection or mid-batch abort) rather than a quota or usage error.
// Attack tooling keys retry-with-backoff on it via errors.Is.
var ErrLaunchFault = errors.New("faas: transient launch failure")

// ErrProbeFault re-exports the sandbox probe-failure sentinel so attack code
// probing through faas primitives can match it without importing sandbox.
var ErrProbeFault = sandbox.ErrProbeFault

// ChannelMisfireWindow is how long one covert-channel misfire episode lasts
// on a host. It equals the paper's per-CTest duration (100 ms), so a misfire
// corrupts a whole single test — exactly the failure mode majority-vote
// repetition (covert.Config.VoteBudget) exists to absorb: repeated tests are
// spaced one TestDuration apart and re-draw the misfire state independently.
// The window is deliberately channel-agnostic: on the faster LLC channel it
// spans several 20 ms tests, so vote repetition alone absorbs less there and
// cross-channel majority (the combined covert tester) is the stronger
// recovery.
const ChannelMisfireWindow = 100 * time.Millisecond

// FaultPlan parameterizes the injected failures of one region. The zero
// value disables every fault and is guaranteed to not perturb the
// simulation: no fault stream is ever drawn from while a rate is zero.
type FaultPlan struct {
	// LaunchFailureRate is the probability that a Service.Launch call fails
	// with ErrLaunchFault. Half of the failures are up-front rejections
	// (quota-throttle style, nothing happens); the other half abort
	// mid-batch after placement, and the orchestrator rolls every partially
	// created instance back — a failed launch never leaves partial state or
	// partial billing.
	LaunchFailureRate float64

	// PreemptionRatePerHour is the per-hour probability that a connected
	// instance is terminated outright by the lifecycle kernel (no
	// replacement), modeling host drains and capacity reclaims. Unlike
	// churn, the connection is simply lost; the tenant must relaunch.
	PreemptionRatePerHour float64

	// ChannelFalsePositiveRate and ChannelFalseNegativeRate are the per-host
	// probabilities, evaluated once per ChannelMisfireWindow, that the host
	// enters a misfire episode in which every contention-round observation
	// is corrupted: a false-positive episode adds one phantom contention
	// unit (merging groups), a false-negative episode zeroes the
	// observation (splitting them).
	ChannelFalsePositiveRate float64
	ChannelFalseNegativeRate float64

	// ProbeFailureRate is the probability that a fingerprint probe
	// (CollectGen1/CollectGen2, a frequency-measurement repetition, or
	// ProbeContention) fails with ErrProbeFault.
	ProbeFailureRate float64

	// PerChannel overrides the scalar channel misfire rates for individual
	// resource families, indexed by Resource. A zero-valued entry falls back
	// to the scalar ChannelFalsePositiveRate/ChannelFalseNegativeRate pair,
	// so the scalar plan remains a uniform fallback covering every channel —
	// and a channel-targeted plan (say, an RNG misfire storm) leaves the
	// other families untouched.
	PerChannel [NumResources]ChannelFaultRates
}

// ChannelFaultRates is the misfire configuration of one covert-channel
// resource family.
type ChannelFaultRates struct {
	FalsePositiveRate float64
	FalseNegativeRate float64
}

// zero reports whether the entry defers to the plan's scalar rates.
func (r ChannelFaultRates) zero() bool {
	return r.FalsePositiveRate == 0 && r.FalseNegativeRate == 0
}

// channelRates resolves the misfire rates governing one resource family: the
// per-channel override when set, the scalar pair otherwise. Pointer receiver:
// Host.updateMisfire calls it once per host per test execution, so the plan
// must not be copied.
func (f *FaultPlan) channelRates(res Resource) ChannelFaultRates {
	if res.Valid() && !f.PerChannel[res].zero() {
		return f.PerChannel[res]
	}
	return ChannelFaultRates{
		FalsePositiveRate: f.ChannelFalsePositiveRate,
		FalseNegativeRate: f.ChannelFalseNegativeRate,
	}
}

// Enabled reports whether any fault is configured.
func (f FaultPlan) Enabled() bool {
	for _, r := range f.PerChannel {
		if !r.zero() {
			return true
		}
	}
	return f.LaunchFailureRate > 0 || f.PreemptionRatePerHour > 0 ||
		f.ChannelFalsePositiveRate > 0 || f.ChannelFalseNegativeRate > 0 ||
		f.ProbeFailureRate > 0
}

// Validate checks every rate is a probability.
func (f FaultPlan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"LaunchFailureRate", f.LaunchFailureRate},
		{"PreemptionRatePerHour", f.PreemptionRatePerHour},
		{"ChannelFalsePositiveRate", f.ChannelFalsePositiveRate},
		{"ChannelFalseNegativeRate", f.ChannelFalseNegativeRate},
		{"ProbeFailureRate", f.ProbeFailureRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faas: FaultPlan.%s %v out of [0,1]", r.name, r.v)
		}
	}
	for res, r := range f.PerChannel {
		if r.FalsePositiveRate < 0 || r.FalsePositiveRate > 1 {
			return fmt.Errorf("faas: FaultPlan.PerChannel[%s].FalsePositiveRate %v out of [0,1]", Resource(res), r.FalsePositiveRate)
		}
		if r.FalseNegativeRate < 0 || r.FalseNegativeRate > 1 {
			return fmt.Errorf("faas: FaultPlan.PerChannel[%s].FalseNegativeRate %v out of [0,1]", Resource(res), r.FalseNegativeRate)
		}
	}
	return nil
}

// UniformFaultPlan maps one scalar fault level λ onto the plan's rates in
// the proportions the fault-sweep experiment (and the -faults CLI flag)
// uses: launch failures at λ, channel false positives and negatives at 0.2λ
// each (2% total corruption at the λ=5% acceptance point), probe failures at
// 0.5λ, and preemption at 0.25λ per hour.
func UniformFaultPlan(level float64) FaultPlan {
	return FaultPlan{
		LaunchFailureRate:        level,
		PreemptionRatePerHour:    0.25 * level,
		ChannelFalsePositiveRate: 0.2 * level,
		ChannelFalseNegativeRate: 0.2 * level,
		ProbeFailureRate:         0.5 * level,
	}
}

// FaultCounters tallies the faults a data center actually injected — ground
// truth for experiments to report next to the attack side's recovery ledger.
type FaultCounters struct {
	// LaunchRejections counts launches rejected up front.
	LaunchRejections int
	// LaunchAborts counts launches aborted mid-batch (after placement).
	LaunchAborts int
	// InstancesRolledBack counts instances created and then rolled back by
	// mid-batch aborts.
	InstancesRolledBack int
	// Preemptions counts connected instances terminated by fault-plane
	// preemption.
	Preemptions int
	// ChannelMisfires counts misfire episodes entered (one per window, per
	// host).
	ChannelMisfires int
	// ProbeFaults counts failed fingerprint/contention probes.
	ProbeFaults int
}

// String renders the counters as one report clause.
func (c FaultCounters) String() string {
	return fmt.Sprintf("%d launch rejections, %d aborts (%d instances rolled back), %d preemptions, %d channel misfires, %d probe faults",
		c.LaunchRejections, c.LaunchAborts, c.InstancesRolledBack, c.Preemptions, c.ChannelMisfires, c.ProbeFaults)
}

// FaultCounters returns a snapshot of the faults injected so far.
func (dc *DataCenter) FaultCounters() FaultCounters { return dc.faultCounters }

// Faults returns the region's fault plan.
func (dc *DataCenter) Faults() FaultPlan { return dc.faults }
