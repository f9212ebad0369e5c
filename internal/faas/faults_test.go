package faas

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func faultDC(t *testing.T, seed uint64, plan FaultPlan) *DataCenter {
	t.Helper()
	p := testProfile()
	p.Faults = plan
	pl, err := NewPlatform(seed, p)
	if err != nil {
		t.Fatal(err)
	}
	return pl.MustRegion(p.Name)
}

func TestFaultPlanValidate(t *testing.T) {
	var zero FaultPlan
	if zero.Enabled() {
		t.Error("zero plan reports Enabled")
	}
	if err := zero.Validate(); err != nil {
		t.Errorf("zero plan invalid: %v", err)
	}
	ok := FaultPlan{
		LaunchFailureRate:        0.5,
		PreemptionRatePerHour:    1,
		ChannelFalsePositiveRate: 0.01,
		ChannelFalseNegativeRate: 0.99,
		ProbeFailureRate:         0.3,
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("in-range plan invalid: %v", err)
	}
	if !ok.Enabled() {
		t.Error("in-range plan reports disabled")
	}
	for _, bad := range []FaultPlan{
		{LaunchFailureRate: -0.1},
		{LaunchFailureRate: 1.1},
		{PreemptionRatePerHour: -1},
		{PreemptionRatePerHour: 2},
		{ChannelFalsePositiveRate: 1.0001},
		{ChannelFalseNegativeRate: -0.0001},
		{ProbeFailureRate: 7},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("out-of-range plan %+v validated", bad)
		}
	}
}

func TestUniformFaultPlan(t *testing.T) {
	if got := UniformFaultPlan(0); got != (FaultPlan{}) {
		t.Errorf("UniformFaultPlan(0) = %+v, want zero plan", got)
	}
	p := UniformFaultPlan(0.05)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	approx := func(got, want float64) bool {
		d := got - want
		return d < 1e-12 && d > -1e-12
	}
	if !approx(p.LaunchFailureRate, 0.05) {
		t.Errorf("LaunchFailureRate = %v", p.LaunchFailureRate)
	}
	if !approx(p.PreemptionRatePerHour, 0.0125) {
		t.Errorf("PreemptionRatePerHour = %v", p.PreemptionRatePerHour)
	}
	if !approx(p.ChannelFalsePositiveRate, 0.01) || !approx(p.ChannelFalseNegativeRate, 0.01) {
		t.Errorf("channel rates = %v / %v", p.ChannelFalsePositiveRate, p.ChannelFalseNegativeRate)
	}
	if !approx(p.ProbeFailureRate, 0.025) {
		t.Errorf("ProbeFailureRate = %v", p.ProbeFailureRate)
	}
}

// faultWorkload exercises every faultable code path — launches, churn/
// preemption sweeps, contention rounds, contention probes, disconnects —
// against one plan, returning the final bill and fault tally. It fails the
// test on any error that is not an injected fault.
func faultWorkload(t *testing.T, seed uint64, plan FaultPlan) (Bill, FaultCounters) {
	t.Helper()
	dc := faultDC(t, seed, plan)
	sched := dc.Scheduler()
	acct := dc.Account("tenant")
	acct.Mature()
	svc := acct.DeployService("svc", ServiceConfig{})
	lastVCPU := 0.0
	for round := 0; round < 25; round++ {
		insts, err := svc.Launch(20)
		switch {
		case err == nil:
			if len(insts) != 20 {
				t.Fatalf("round %d: successful launch returned %d of 20", round, len(insts))
			}
		case errors.Is(err, ErrLaunchFault):
			// Injected; the launch must have been a clean no-op (checked in
			// detail by TestLaunchFaultLeavesNoPartialState).
		default:
			t.Fatalf("round %d: unexpected launch error: %v", round, err)
		}
		sched.Advance(10 * time.Minute)
		live := svc.ActiveInstances()
		if len(live) > 1 {
			if err := ContentionRounds(ResourceRNG, live[:2], 1, 2, make([]int, 2), nil); err != nil {
				t.Fatalf("round %d: contention round: %v", round, err)
			}
			if _, err := ProbeContention(live[0]); err != nil && !errors.Is(err, ErrProbeFault) {
				t.Fatalf("round %d: probe: %v", round, err)
			}
		}
		if round%7 == 6 {
			svc.Disconnect()
		}
		bill := acct.Bill()
		if bill.Instances < 0 {
			t.Fatalf("round %d: bill.Instances went negative: %d", round, bill.Instances)
		}
		if bill.VCPUSeconds < lastVCPU {
			t.Fatalf("round %d: VCPUSeconds decreased: %v -> %v", round, lastVCPU, bill.VCPUSeconds)
		}
		lastVCPU = bill.VCPUSeconds
	}
	return acct.Bill(), dc.FaultCounters()
}

// TestFaultPlanNeverPanics is the fault plane's safety property: any plan
// with rates in [0,1] — including every rate pinned at 1 — runs the full
// workload without panicking, keeps the bill consistent, and a disabled plan
// injects nothing.
func TestFaultPlanNeverPanics(t *testing.T) {
	plans := []FaultPlan{
		{},
		UniformFaultPlan(0.01),
		UniformFaultPlan(0.25),
		UniformFaultPlan(1),
		{LaunchFailureRate: 1},
		{PreemptionRatePerHour: 1},
		{ChannelFalsePositiveRate: 1},
		{ChannelFalseNegativeRate: 1},
		{ProbeFailureRate: 1},
		{LaunchFailureRate: 0.3, ChannelFalsePositiveRate: 0.7, ProbeFailureRate: 0.9},
	}
	for i, plan := range plans {
		_, fc := faultWorkload(t, uint64(100+i), plan)
		total := fc.LaunchRejections + fc.LaunchAborts + fc.Preemptions +
			fc.ChannelMisfires + fc.ProbeFaults
		if !plan.Enabled() && total != 0 {
			t.Errorf("plan %d: disabled plan injected %d faults: %+v", i, total, fc)
		}
		if plan.LaunchFailureRate == 1 && fc.LaunchRejections+fc.LaunchAborts == 0 {
			t.Errorf("plan %d: certain launch failure never fired", i)
		}
	}
}

// TestFaultWorldDeterministic: the same seed and plan reproduce the exact
// same fault history — counters and bill alike.
func TestFaultWorldDeterministic(t *testing.T) {
	plan := UniformFaultPlan(0.2)
	b1, f1 := faultWorkload(t, 77, plan)
	b2, f2 := faultWorkload(t, 77, plan)
	if f1 != f2 {
		t.Errorf("fault counters diverged:\n  %+v\n  %+v", f1, f2)
	}
	if b1 != b2 {
		t.Errorf("bills diverged:\n  %+v\n  %+v", b1, b2)
	}
	if f1 == (FaultCounters{}) {
		t.Error("level-0.2 workload injected no faults at all")
	}
}

// TestFaultCountersString pins the report clause `eaao attack` prints for
// both its single-region and fleet paths.
func TestFaultCountersString(t *testing.T) {
	c := FaultCounters{LaunchRejections: 1, LaunchAborts: 2, InstancesRolledBack: 3,
		Preemptions: 4, ChannelMisfires: 5, ProbeFaults: 6}
	want := "1 launch rejections, 2 aborts (3 instances rolled back), 4 preemptions, 5 channel misfires, 6 probe faults"
	if got := c.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestPerChannelFaultRates(t *testing.T) {
	// A zero PerChannel entry falls back to the scalar pair.
	scalar := FaultPlan{ChannelFalsePositiveRate: 0.1, ChannelFalseNegativeRate: 0.2}
	for res := Resource(0); res.Valid(); res++ {
		got := scalar.channelRates(res)
		if got.FalsePositiveRate != 0.1 || got.FalseNegativeRate != 0.2 {
			t.Errorf("%s rates = %+v, want scalar fallback", res, got)
		}
	}
	// A set entry overrides for its family only.
	targeted := scalar
	targeted.PerChannel[ResourceLLC] = ChannelFaultRates{FalsePositiveRate: 0.5}
	if got := targeted.channelRates(ResourceLLC); got.FalsePositiveRate != 0.5 || got.FalseNegativeRate != 0 {
		t.Errorf("LLC override = %+v", got)
	}
	if got := targeted.channelRates(ResourceRNG); got.FalsePositiveRate != 0.1 {
		t.Errorf("RNG rates = %+v, want scalar fallback", got)
	}
	// An unknown resource degrades to the scalar pair instead of panicking.
	if got := targeted.channelRates(Resource(9)); got.FalsePositiveRate != 0.1 {
		t.Errorf("unknown-resource rates = %+v", got)
	}

	// A plan whose only fault is a per-channel entry is enabled and valid.
	var perOnly FaultPlan
	perOnly.PerChannel[ResourceRNG] = ChannelFaultRates{FalseNegativeRate: 0.3}
	if !perOnly.Enabled() {
		t.Error("per-channel-only plan reports disabled")
	}
	if err := perOnly.Validate(); err != nil {
		t.Errorf("per-channel-only plan invalid: %v", err)
	}
	var bad FaultPlan
	bad.PerChannel[ResourceMemBus] = ChannelFaultRates{FalsePositiveRate: 1.5}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range per-channel rate validated")
	}
}

// A channel-targeted misfire plan corrupts only its resource family: with a
// certain RNG false-positive episode, every RNG round on a quiet host reads
// phantom contention while LLC rounds on the same host stay clean.
func TestChannelTargetedMisfire(t *testing.T) {
	var plan FaultPlan
	plan.PerChannel[ResourceRNG] = ChannelFaultRates{FalsePositiveRate: 1}
	dc := faultDC(t, 29, plan)
	var probe *Instance
	for i := 0; i < 10 && probe == nil; i++ {
		insts, err := dc.Account(fmt.Sprintf("t%d", i)).DeployService("s", ServiceConfig{}).Launch(1)
		if err != nil {
			t.Fatal(err)
		}
		if insts[0].host.ResidentCount() == 1 {
			probe = insts[0]
		}
	}
	if probe == nil {
		t.Skip("no single-resident host")
	}
	parts := []*Instance{probe}
	var votes [1]int
	if err := ContentionRounds(ResourceRNG, parts, 50, 2, votes[:], nil); err != nil {
		t.Fatal(err)
	}
	if votes[0] != 50 {
		t.Fatalf("RNG observed >= 2 units in %d of 50 rounds under a certain FP episode, want all", votes[0])
	}
	const llcRounds = 400
	if err := ContentionRounds(ResourceLLC, parts, llcRounds, 2, votes[:], nil); err != nil {
		t.Fatal(err)
	}
	// The LLC sees only its own base noise (~4%), not the RNG's misfires.
	if rate := float64(votes[0]) / llcRounds; rate > 0.12 {
		t.Errorf("LLC phantom rate %.3f under an RNG-targeted plan, want ~0.04", rate)
	}
	if dc.FaultCounters().ChannelMisfires == 0 {
		t.Error("no misfire episodes were counted")
	}
}
