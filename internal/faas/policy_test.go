package faas

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// launchOn builds a world with the given policy and runs one hot launch
// series, returning the per-launch host sets.
func launchOn(t *testing.T, seed uint64, set func(*RegionProfile), launches, n int) []map[HostID]int {
	t.Helper()
	p := testProfile()
	if set != nil {
		set(&p)
	}
	pl, err := NewPlatform(seed, p)
	if err != nil {
		t.Fatal(err)
	}
	dc := pl.MustRegion(p.Name)
	svc := dc.Account("a1").DeployService("s", ServiceConfig{})
	out := make([]map[HostID]int, launches)
	for l := 0; l < launches; l++ {
		insts, err := svc.Launch(n)
		if err != nil {
			t.Fatal(err)
		}
		out[l] = hostSet(insts)
		svc.Disconnect()
		dc.Scheduler().Advance(10 * time.Minute)
	}
	return out
}

func sameHostSets(a, b []map[HostID]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for id, n := range a[i] {
			if b[i][id] != n {
				return false
			}
		}
	}
	return true
}

// The nil-policy default must be exactly CloudRunPolicy: the extraction is a
// refactor, not a behavior change.
func TestNilPolicyIsCloudRun(t *testing.T) {
	base := launchOn(t, 7, nil, 4, 120)
	explicit := launchOn(t, 7, func(p *RegionProfile) { p.Policy = CloudRunPolicy{} }, 4, 120)
	if !sameHostSets(base, explicit) {
		t.Error("explicit CloudRunPolicy placed differently from the nil default")
	}
}

// LeastLoadedPolicy must balance: after placement, resident counts across
// used hosts differ by at most the packing cap, and a fresh tenant's batch
// goes to the emptiest hosts.
func TestLeastLoadedBalances(t *testing.T) {
	p := testProfile()
	p.Policy = LeastLoadedPolicy{}
	pl := MustPlatform(13, p)
	dc := pl.MustRegion(p.Name)
	if _, err := dc.Account("a1").DeployService("s1", ServiceConfig{}).Launch(240); err != nil {
		t.Fatal(err)
	}
	// 240 instances at cap 11 → 22 hosts ≈ 11 each; the rest of the fleet
	// is empty, so a second tenant must land entirely on empty hosts.
	insts, err := dc.Account("a2").DeployService("s2", ServiceConfig{}).Launch(110)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts {
		h := inst.host
		for _, other := range h.instances {
			if other.service.account.id != "a2" {
				t.Fatalf("second tenant shares host %d with %s despite empty hosts remaining",
					h.id, other.service.account.id)
			}
		}
	}
	// Load stays near-uniform across used hosts.
	min, max := 1<<30, 0
	used := 0
	for _, h := range dc.hosts {
		n := len(h.instances)
		if n == 0 {
			continue
		}
		used++
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > p.BasePerHostCap {
		t.Errorf("least-loaded imbalance: min %d max %d across %d used hosts", min, max, used)
	}
}

// placeNew edge case: a base pool too small for the batch is clamped — every
// instance still lands, packed beyond the nominal per-host cap.
func TestPlaceNewOverflowsTinyBasePool(t *testing.T) {
	p := testProfile()
	p.PlacementGroups = 12 // group size 10 → base pool clamps to 10 hosts
	p.BasePoolSize = 10
	pl := MustPlatform(3, p)
	dc := pl.MustRegion(p.Name)
	insts, err := dc.Account("a1").DeployService("s", ServiceConfig{}).Launch(500)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 500 {
		t.Fatalf("placed %d of 500 with a clamped pool", len(insts))
	}
	hs := hostSet(insts)
	if len(hs) != p.BasePoolSize {
		t.Errorf("cold launch used %d hosts, want the full clamped pool of %d", len(hs), p.BasePoolSize)
	}
	for id, n := range hs {
		if n <= p.BasePerHostCap {
			t.Errorf("host %d holds %d ≤ cap %d; expected overflow packing", id, n, p.BasePerHostCap)
		}
	}
}

// placeNew edge case: quota is enforced before any instance materializes, so
// an oversized launch is all-or-nothing, and maturing the account unblocks
// the same request.
func TestQuotaExhaustionLeavesNoPartialBatch(t *testing.T) {
	p := testProfile()
	p.NewAccountQuota = 50
	pl := MustPlatform(5, p)
	dc := pl.MustRegion(p.Name)
	acct := dc.Account("fresh")
	svc := acct.DeployService("s", ServiceConfig{})
	if _, err := svc.Launch(51); err == nil {
		t.Fatal("launch beyond the new-account quota succeeded")
	}
	if got := len(svc.Instances()); got != 0 {
		t.Fatalf("failed launch left %d instances behind", got)
	}
	if acct.Bill().Instances != 0 {
		t.Error("failed launch was billed")
	}
	acct.Mature()
	insts, err := svc.Launch(51)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 51 {
		t.Fatalf("matured launch placed %d of 51", len(insts))
	}
}

// Like quota exhaustion, an injected launch fault — whether an up-front
// rejection or a mid-batch abort after some instances were already placed —
// must be all-or-nothing: no instances left behind, no idle warm capacity
// created, and not a cent billed. The high failure rate makes both fault
// flavors fire within the loop.
func TestLaunchFaultLeavesNoPartialState(t *testing.T) {
	p := testProfile()
	p.Faults = FaultPlan{LaunchFailureRate: 0.5}
	pl := MustPlatform(7, p)
	dc := pl.MustRegion(p.Name)
	acct := dc.Account("a1")
	acct.Mature()
	svc := acct.DeployService("s", ServiceConfig{})
	failures := 0
	for round := 0; round < 40; round++ {
		before := acct.Bill()
		beforeInsts := len(svc.Instances())
		beforeIdle := svc.IdleCount()
		insts, err := svc.Launch(30)
		if err != nil {
			if !errors.Is(err, ErrLaunchFault) {
				t.Fatalf("round %d: unexpected launch error: %v", round, err)
			}
			failures++
			after := acct.Bill()
			if after != before {
				t.Fatalf("round %d: failed launch changed the bill:\n  before %+v\n  after  %+v", round, before, after)
			}
			if got := len(svc.Instances()); got != beforeInsts {
				t.Fatalf("round %d: failed launch left %d instances behind", round, got-beforeInsts)
			}
			if got := svc.IdleCount(); got != beforeIdle {
				t.Fatalf("round %d: failed launch changed idle capacity: %d -> %d", round, beforeIdle, got)
			}
		} else {
			if len(insts) != 30 {
				t.Fatalf("round %d: successful launch placed %d of 30", round, len(insts))
			}
			svc.Disconnect()
		}
		dc.Scheduler().Advance(5 * time.Minute)
	}
	fc := dc.FaultCounters()
	if failures == 0 || fc.LaunchRejections == 0 || fc.LaunchAborts == 0 {
		t.Fatalf("rate-0.5 run exercised too little: %d failures, counters %+v", failures, fc)
	}
	if fc.InstancesRolledBack == 0 {
		t.Error("mid-batch aborts fired but rolled no instances back")
	}
}

// placeNew edge case: when the demand streak asks for more helper slots than
// the unlocked window holds, the surplus spills to base hosts instead of
// overpacking helpers.
func TestHelperWindowExhaustionSpillsToBase(t *testing.T) {
	p := testProfile()
	p.ServiceHelperSize = 6 // tiny helper set: 6 account + 5 fresh
	p.ServiceHelperFresh = 5
	pl := MustPlatform(11, p)
	dc := pl.MustRegion(p.Name)
	acct := dc.Account("a1")
	svc := acct.DeployService("s", ServiceConfig{})

	// Build a saturated streak with small launches, then demand far more
	// than the helper window can hold.
	for i := 0; i < 4; i++ {
		if _, err := svc.Launch(30); err != nil {
			t.Fatal(err)
		}
		svc.Disconnect()
		dc.Scheduler().Advance(5 * time.Minute)
	}
	// Warm-reused instances from the streak launches are not new
	// placements; track which instances already existed.
	existing := make(map[*Instance]bool)
	for _, inst := range svc.Instances() {
		existing[inst] = true
	}
	insts, err := svc.Launch(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 300 {
		t.Fatalf("placed %d of 300", len(insts))
	}
	// The account-pool helper draw can coincide with base-pool hosts (only
	// the fresh draw excludes them), so judge the helper path on
	// helper-exclusive hosts: base placement never touches those.
	helpers := svc.policyState.(*cloudRunState).helpers
	helperOnly := make(map[HostID]bool, len(helpers))
	for _, h := range helpers {
		helperOnly[h] = true
	}
	for _, h := range acct.basePool {
		delete(helperOnly, h)
	}
	onHelpers, spill := 0, 0
	for _, inst := range insts {
		if existing[inst] {
			continue
		}
		if helperOnly[inst.host.id] {
			onHelpers++
		} else {
			spill++
		}
	}
	// The unlocked window holds at most len(helpers)*HelperPerHostCap new
	// instances per batch; the rest must spill to base.
	if limit := len(helpers) * p.HelperPerHostCap; onHelpers > limit {
		t.Errorf("helper-only hosts hold %d new instances, beyond the window capacity %d", onHelpers, limit)
	}
	if spill == 0 {
		t.Error("no spill to base hosts despite an exhausted helper window")
	}
}

func TestPolicyByName(t *testing.T) {
	for _, want := range []string{"cloudrun", "random-uniform", "least-loaded"} {
		pol, err := PolicyByName(want)
		if err != nil {
			t.Fatal(err)
		}
		if pol.Name() != want {
			t.Errorf("PolicyByName(%q).Name() = %q", want, pol.Name())
		}
	}
	if pol, err := PolicyByName("random"); err != nil || pol.Name() != "random-uniform" {
		t.Errorf("alias random → %v, %v", pol, err)
	}
	if pol, err := PolicyByName("leastloaded"); err != nil || pol.Name() != "least-loaded" {
		t.Errorf("alias leastloaded → %v, %v", pol, err)
	}
	if _, err := PolicyByName("spread-random"); err == nil {
		t.Error("unknown policy name resolved")
	}
}

// The trace ring records placement decisions in order, stays bounded, and
// carries no host identities.
func TestTraceRing(t *testing.T) {
	p := testProfile()
	pl := MustPlatform(17, p)
	dc := pl.MustRegion(p.Name)
	ring := NewTraceRing(8)
	dc.SetPlacementTracer(ring)

	svc := dc.Account("a1").DeployService("s", ServiceConfig{})
	for i := 0; i < 6; i++ {
		if _, err := svc.Launch(40); err != nil {
			t.Fatal(err)
		}
		svc.Disconnect()
		dc.Scheduler().Advance(45 * time.Minute) // cold gap → decay events too
	}
	// The reaper's idle-term events flooded the ring; a final launch ends
	// the stream with a decay and a place event.
	if _, err := svc.Launch(40); err != nil {
		t.Fatal(err)
	}
	if ring.Len() != 8 {
		t.Fatalf("ring holds %d events, want capacity 8", ring.Len())
	}
	if ring.Dropped() == 0 {
		t.Error("ring dropped nothing despite overflow")
	}
	evs := ring.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("events out of order: seq %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
	sawPlace := false
	for _, ev := range evs {
		if ev.Policy != "cloudrun" || ev.Region != p.Name {
			t.Fatalf("event misattributed: %+v", ev)
		}
		if ev.Kind == TracePlace {
			sawPlace = true
			if ev.Count <= 0 || ev.Hosts <= 0 {
				t.Errorf("place event without counts: %+v", ev)
			}
		}
	}
	if !sawPlace {
		t.Error("no place events retained")
	}

	// Removing the tracer stops recording.
	dc.SetPlacementTracer(nil)
	before := ring.Dropped()
	if _, err := svc.Launch(40); err != nil {
		t.Fatal(err)
	}
	if ring.Dropped() != before {
		t.Error("ring still recording after tracer removal")
	}
}

// Installing a tracer must not change placement: tracing is observation
// only.
func TestTracerDoesNotPerturbPlacement(t *testing.T) {
	quiet := launchOn(t, 23, nil, 3, 120)
	traced := func() []map[HostID]int {
		p := testProfile()
		pl := MustPlatform(23, p)
		dc := pl.MustRegion(p.Name)
		dc.SetPlacementTracer(NewTraceRing(64))
		svc := dc.Account("a1").DeployService("s", ServiceConfig{})
		out := make([]map[HostID]int, 3)
		for l := 0; l < 3; l++ {
			insts, err := svc.Launch(120)
			if err != nil {
				t.Fatal(err)
			}
			out[l] = hostSet(insts)
			svc.Disconnect()
			dc.Scheduler().Advance(10 * time.Minute)
		}
		return out
	}()
	if !sameHostSets(quiet, traced) {
		t.Error("installing a tracer changed placement")
	}
}

// BenchmarkPlacement measures the raw placement path — deploy a fresh
// service and cold-launch 200 instances — under each placement policy.
// CloudRun pays for helper-set construction and ranked noisy selection;
// random-uniform for one fleet-wide sample; least-loaded for a load sort.
func BenchmarkPlacement(b *testing.B) {
	for _, pol := range Policies() {
		b.Run(pol.Name(), func(b *testing.B) {
			p := testProfile()
			p.Policy = pol
			pl := MustPlatform(18, p)
			acct := pl.MustRegion(p.Name).Account("a")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svc := acct.DeployService(fmt.Sprintf("s%d", i), ServiceConfig{})
				if _, err := svc.Launch(200); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				// Drain the fleet so iterations don't pile up instances.
				svc.Disconnect()
				pl.Scheduler().Advance(16 * time.Minute)
				b.StartTimer()
			}
		})
	}
}
