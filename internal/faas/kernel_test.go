package faas

import (
	"testing"
	"time"

	"eaao/internal/simtime"
)

// kernelDC builds a test region with the given churn and preemption rates on
// the event kernel (the default lifecycle implementation).
func kernelDC(t *testing.T, seed uint64, churn, preempt float64, mutate ...func(*RegionProfile)) *DataCenter {
	t.Helper()
	p := testProfile()
	p.InstanceChurnPerHour = churn
	p.Faults.PreemptionRatePerHour = preempt
	for _, m := range mutate {
		m(&p)
	}
	pl, err := NewPlatform(seed, p)
	if err != nil {
		t.Fatal(err)
	}
	return pl.MustRegion("test-region")
}

// countSIGTERMs hooks every live instance of the service.
func countSIGTERMs(svc *Service, terms *int) {
	for _, inst := range svc.Instances() {
		inst.OnSIGTERM(func(*Instance, simtime.Time) { *terms++ })
	}
}

// TestKernelImmunityInterval pins the satellite-3 fix: a freshly created
// instance is not eligible for churn or preemption until one full
// lifecycleInterval has elapsed. Churn rate 1.0/hour makes the hazard
// deterministic (λ = ∞ ⇒ the exponential delay is exactly zero), so every
// instance is recycled exactly at creation + lifecycleInterval and its
// replacement survives until its own immunity expires — under the old hourly
// sweep, a rate this high could kill a replacement in the sweep that bore it.
func TestKernelImmunityInterval(t *testing.T) {
	dc := kernelDC(t, 7, 1.0, 0)
	sched := dc.platform.sched
	svc := dc.Account("a").DeployService("s", ServiceConfig{})
	if _, err := svc.Launch(10); err != nil {
		t.Fatal(err)
	}
	terms := 0
	countSIGTERMs(svc, &terms)

	sched.Advance(lifecycleInterval - time.Minute)
	if terms != 0 {
		t.Fatalf("%d instances churned before the immunity interval elapsed", terms)
	}
	sched.Advance(2 * time.Minute) // cross creation + lifecycleInterval
	if terms != 10 {
		t.Fatalf("churn at rate 1.0 recycled %d of 10 at the interval boundary", terms)
	}
	if got := svc.ActiveCount(); got != 10 {
		t.Fatalf("recycling must keep the connection count: active = %d", got)
	}
	// The replacements were born at +1h and must survive until +2h.
	sched.Advance(58 * time.Minute) // now at 1h59m
	if terms != 10 {
		t.Fatalf("replacement churned inside its own immunity interval (terms=%d)", terms)
	}
}

// TestKernelIdleCarriesNoHazard: the sweep only ever drew for connected
// instances; the kernel must match. A timer that fires while the instance is
// idle dies, and warm reactivation resumes the hazard memorylessly — at rate
// 1.0/hour the resumed delay is exactly zero, so the reuse is recycled on the
// next scheduler step while the idle period itself stays untouched.
func TestKernelIdleCarriesNoHazard(t *testing.T) {
	dc := kernelDC(t, 8, 1.0, 0, func(p *RegionProfile) {
		p.IdleGrace = 6 * time.Hour // keep idles alive across several intervals
	})
	sched := dc.platform.sched
	svc := dc.Account("a").DeployService("s", ServiceConfig{})
	if _, err := svc.Launch(10); err != nil {
		t.Fatal(err)
	}
	terms := 0
	countSIGTERMs(svc, &terms)
	svc.Disconnect()

	sched.Advance(3 * time.Hour)
	if terms != 0 {
		t.Fatalf("%d idle instances were churned; idle instances carry no hazard", terms)
	}
	if got := svc.IdleCount(); got != 10 {
		t.Fatalf("idle = %d, want 10", got)
	}

	// Warm reuse resumes the hazard; at rate 1.0 it fires immediately.
	if _, err := svc.Launch(10); err != nil {
		t.Fatal(err)
	}
	countSIGTERMs(svc, &terms) // hook the recycled replacements too
	sched.Advance(time.Second)
	if terms != 10 {
		t.Fatalf("resumed hazard at rate 1.0 recycled %d of 10", terms)
	}
	if got := svc.ActiveCount(); got != 10 {
		t.Fatalf("active = %d after resume-recycle, want 10", got)
	}
}

// TestKernelFaultCountersConsistent runs churn and preemption as competing
// risks and cross-checks every ledger the kernel touches: SIGTERMs equal
// preemptions plus recycles, preemptions (terminate-without-replace) are the
// exact connection loss, and recycles (terminate-and-replace) are the exact
// billing growth.
func TestKernelFaultCountersConsistent(t *testing.T) {
	dc := kernelDC(t, 9, 0.10, 0.08)
	sched := dc.platform.sched
	acct := dc.Account("a")
	svc := acct.DeployService("s", ServiceConfig{})
	const n = 60
	if _, err := svc.Launch(n); err != nil {
		t.Fatal(err)
	}
	terms := 0
	// Hook at creation time, including every replacement the kernel creates:
	// re-hook after each advance below (replacements created in between are
	// only terminated by later events, which happen after the re-hook).
	for h := 0; h < 36; h++ {
		countSIGTERMs(svc, &terms)
		sched.Advance(time.Hour)
	}

	preempts := dc.FaultCounters().Preemptions
	created := acct.Bill().Instances
	recycles := created - n
	if preempts == 0 || recycles == 0 {
		t.Fatalf("competing risks did not both fire: preempts=%d recycles=%d", preempts, recycles)
	}
	if got := svc.ActiveCount(); got != n-preempts {
		t.Errorf("active = %d, want %d (preemption is the only connection loss)", got, n-preempts)
	}
	if terms != preempts+recycles {
		t.Errorf("SIGTERMs = %d, want preempts+recycles = %d+%d", terms, preempts, recycles)
	}
	if got := len(svc.ActiveInstances()); got != svc.ActiveCount() {
		t.Errorf("ActiveCount()=%d diverged from scan=%d", svc.ActiveCount(), got)
	}
}

// TestLazyHostMaterializationInvariant is the property test of the lazy
// fleet: force-materializing every host up front must not change a single
// placement decision, because each host's heavy state comes from its own
// derived stream. The workload deliberately crosses launches, idle reaping,
// churn recycling, warm reuse, and autoscaling.
func TestLazyHostMaterializationInvariant(t *testing.T) {
	run := func(eager bool) ([]string, []HostID, int) {
		pl := MustPlatform(33, testProfile())
		dc := pl.MustRegion("test-region")
		if eager {
			for _, h := range dc.hosts {
				h.materialize()
			}
		}
		svc := dc.Account("a").DeployService("s", ServiceConfig{MaxConcurrency: 1})
		if _, err := svc.Launch(40); err != nil {
			t.Fatal(err)
		}
		pl.Scheduler().Advance(2 * time.Hour) // churn + idle dynamics
		svc.Disconnect()
		pl.Scheduler().Advance(5 * time.Minute) // partial reap
		if err := svc.SetDemand(25); err != nil {
			t.Fatal(err)
		}
		pl.Scheduler().Advance(30 * time.Minute)
		var ids []string
		var hostIDs []HostID
		for _, inst := range svc.Instances() {
			ids = append(ids, inst.ID())
			hid, _ := inst.HostID()
			hostIDs = append(hostIDs, hid)
		}
		return ids, hostIDs, dc.MaterializedHosts()
	}

	lazyIDs, lazyHosts, lazyMat := run(false)
	eagerIDs, eagerHosts, eagerMat := run(true)
	if len(lazyIDs) != len(eagerIDs) {
		t.Fatalf("instance counts diverged: lazy %d, eager %d", len(lazyIDs), len(eagerIDs))
	}
	for i := range lazyIDs {
		if lazyIDs[i] != eagerIDs[i] || lazyHosts[i] != eagerHosts[i] {
			t.Fatalf("placement diverged at %d: lazy %s@%d, eager %s@%d",
				i, lazyIDs[i], lazyHosts[i], eagerIDs[i], eagerHosts[i])
		}
	}
	if eagerMat != len(MustPlatform(33, testProfile()).MustRegion("test-region").hosts) {
		t.Fatalf("eager world materialized %d hosts", eagerMat)
	}
	if lazyMat >= eagerMat {
		t.Fatalf("lazy world materialized the whole fleet (%d of %d)", lazyMat, eagerMat)
	}
	t.Logf("lazy world materialized %d of %d hosts", lazyMat, eagerMat)
}

// TestActiveCountMatchesScan drives every transition that touches the
// incremental counter (create, warm reuse, idle, terminate, recycle, preempt)
// and checks it against the O(n) scan at each step.
func TestActiveCountMatchesScan(t *testing.T) {
	dc := kernelDC(t, 11, 0.15, 0.10)
	sched := dc.platform.sched
	svc := dc.Account("a").DeployService("s", ServiceConfig{MaxConcurrency: 1})
	check := func(stage string) {
		t.Helper()
		if got, want := svc.ActiveCount(), len(svc.ActiveInstances()); got != want {
			t.Fatalf("%s: ActiveCount()=%d, scan=%d", stage, got, want)
		}
	}
	if _, err := svc.Launch(30); err != nil {
		t.Fatal(err)
	}
	check("launch")
	sched.Advance(3 * time.Hour)
	check("churn+preempt")
	svc.Disconnect()
	check("disconnect")
	sched.Advance(5 * time.Minute)
	check("partial reap")
	if _, err := svc.Launch(10); err != nil {
		t.Fatal(err)
	}
	check("warm reuse")
	if err := svc.SetDemand(4); err != nil {
		t.Fatal(err)
	}
	sched.Advance(20 * time.Minute)
	check("autoscale + full reap")
	svc.TerminateAll()
	check("terminate all")
	if svc.ActiveCount() != 0 {
		t.Fatalf("ActiveCount=%d after TerminateAll", svc.ActiveCount())
	}
}
