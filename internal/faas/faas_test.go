package faas

import (
	"testing"
	"time"

	"eaao/internal/sandbox"
	"eaao/internal/simtime"
)

// testProfile returns a small, fast region for unit tests.
func testProfile() RegionProfile {
	p := USEast1Profile()
	p.Name = "test-region"
	p.NumHosts = 120
	p.PlacementGroups = 3
	p.BasePoolSize = 30
	p.AccountHelperPool = 60
	p.ServiceHelperSize = 45
	p.ServiceHelperFresh = 5
	return p
}

func newTestDC(t *testing.T, seed uint64) *DataCenter {
	t.Helper()
	pl, err := NewPlatform(seed, testProfile())
	if err != nil {
		t.Fatal(err)
	}
	return pl.MustRegion("test-region")
}

func hostSet(insts []*Instance) map[HostID]int {
	out := make(map[HostID]int)
	for _, inst := range insts {
		id, ok := inst.HostID()
		if ok {
			out[id]++
		}
	}
	return out
}

func TestProfileValidation(t *testing.T) {
	for _, p := range DefaultProfiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	bad := USEast1Profile()
	bad.BasePoolSize = 10_000
	if err := bad.Validate(); err == nil {
		t.Error("oversized base pool validated")
	}
	bad2 := USEast1Profile()
	bad2.Name = ""
	if err := bad2.Validate(); err == nil {
		t.Error("unnamed profile validated")
	}
}

func TestPlatformDeterminism(t *testing.T) {
	collect := func() []HostID {
		dc := newTestDC(t, 77)
		svc := dc.Account("acct").DeployService("svc", ServiceConfig{})
		insts, err := svc.Launch(50)
		if err != nil {
			t.Fatal(err)
		}
		var ids []HostID
		for _, inst := range insts {
			id, _ := inst.HostID()
			ids = append(ids, id)
		}
		return ids
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at instance %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestHostsBootInThePast(t *testing.T) {
	dc := newTestDC(t, 1)
	for _, h := range dc.hosts {
		if !h.BootTime().Before(0) {
			t.Fatalf("host %d booted at %v, not before simulation start", h.ID(), h.BootTime())
		}
		age := simtime.Time(0).Sub(h.BootTime())
		if age > dc.profile.MaxBootAge+24*time.Hour {
			t.Errorf("host %d age %v exceeds MaxBootAge", h.ID(), age)
		}
	}
}

func TestProblematicHostFraction(t *testing.T) {
	dc := newTestDC(t, 2)
	n := 0
	for _, h := range dc.hosts {
		if h.Noise().Problematic {
			n++
		}
	}
	frac := float64(n) / float64(len(dc.hosts))
	if frac < 0.03 || frac > 0.20 {
		t.Errorf("problematic fraction = %.3f, want ~0.10", frac)
	}
}

func TestRefinedFreqIs1kHzPrecision(t *testing.T) {
	dc := newTestDC(t, 3)
	for _, h := range dc.hosts {
		if r := h.RefinedTSCHz(); r != float64(int64(r/1000))*1000 {
			t.Fatalf("host %d refined freq %v not 1 kHz aligned", h.ID(), r)
		}
	}
}

// Observation 1: instances of one service share hosts, near-uniformly.
func TestObs1UniformSharedPlacement(t *testing.T) {
	dc := newTestDC(t, 4)
	svc := dc.Account("a1").DeployService("s", ServiceConfig{})
	insts, err := svc.Launch(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 300 {
		t.Fatalf("launched %d", len(insts))
	}
	perHost := hostSet(insts)
	// 300 instances at cap 11 → ~28 hosts.
	if len(perHost) < 20 || len(perHost) > 35 {
		t.Errorf("host footprint = %d, want ~28", len(perHost))
	}
	for id, n := range perHost {
		if n > dc.profile.BasePerHostCap+1 {
			t.Errorf("host %d packs %d instances, cap %d", id, n, dc.profile.BasePerHostCap)
		}
	}
}

// Observation 2: idle instances terminate gradually, all gone by
// grace+span; none terminate during the grace period.
func TestObs2GradualIdleTermination(t *testing.T) {
	dc := newTestDC(t, 5)
	sched := dc.platform.sched
	svc := dc.Account("a1").DeployService("s", ServiceConfig{})
	insts, err := svc.Launch(200)
	if err != nil {
		t.Fatal(err)
	}
	var termTimes []simtime.Time
	for _, inst := range insts {
		inst.OnSIGTERM(func(_ *Instance, at simtime.Time) { termTimes = append(termTimes, at) })
	}
	sched.Advance(time.Minute)
	svc.Disconnect()
	start := sched.Now()

	sched.Advance(dc.profile.IdleGrace)
	if len(termTimes) != 0 {
		t.Errorf("%d instances terminated during grace period", len(termTimes))
	}
	mid := start.Add(dc.profile.IdleGrace + dc.profile.IdleTerminationSpan/2)
	sched.RunUntil(mid)
	midCount := len(termTimes)
	if midCount < 60 || midCount > 140 {
		t.Errorf("terminations at half-span = %d, want ~100 (gradual)", midCount)
	}
	sched.Advance(dc.profile.IdleTerminationSpan)
	if len(termTimes) != 200 {
		t.Errorf("only %d/200 terminated after grace+span", len(termTimes))
	}
	for _, at := range termTimes {
		if at.Sub(start) < dc.profile.IdleGrace {
			t.Errorf("termination at %v inside grace", at.Sub(start))
		}
		if at.Sub(start) > dc.profile.IdleGrace+dc.profile.IdleTerminationSpan {
			t.Errorf("termination at %v beyond span", at.Sub(start))
		}
	}
}

// Observation 3: repeated cold launches of the same account land on a
// stable base-host set, even across different services.
func TestObs3StableBaseHosts(t *testing.T) {
	dc := newTestDC(t, 6)
	sched := dc.platform.sched
	acct := dc.Account("a1")

	cumulative := make(map[HostID]bool)
	var perLaunch []int
	var cumCounts []int
	for i := 0; i < 4; i++ {
		svc := acct.DeployService("svc"+string(rune('a'+i)), ServiceConfig{})
		insts, err := svc.Launch(300)
		if err != nil {
			t.Fatal(err)
		}
		hs := hostSet(insts)
		perLaunch = append(perLaunch, len(hs))
		for id := range hs {
			cumulative[id] = true
		}
		cumCounts = append(cumCounts, len(cumulative))
		svc.Disconnect()
		sched.Advance(45 * time.Minute) // cold gap
	}
	if cumCounts[3] > dc.profile.BasePoolSize {
		t.Errorf("cumulative hosts %d exceeded base pool %d", cumCounts[3], dc.profile.BasePoolSize)
	}
	growth := cumCounts[3] - perLaunch[0]
	if growth > perLaunch[0]/2 {
		t.Errorf("cumulative growth %d too large for base-host behavior (first launch %d)",
			growth, perLaunch[0])
	}
}

// Observation 4: different accounts that hash to different placement groups
// have disjoint base hosts.
func TestObs4AccountsSeparated(t *testing.T) {
	dc := newTestDC(t, 7)
	// Find two accounts in different groups.
	a := dc.Account("alpha")
	var b *Account
	for _, name := range []string{"beta", "gamma", "delta", "epsilon"} {
		cand := dc.Account(name)
		if cand.group != a.group {
			b = cand
			break
		}
	}
	if b == nil {
		t.Fatal("could not find account in a different group")
	}
	ia, err := a.DeployService("s", ServiceConfig{}).Launch(200)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := b.DeployService("s", ServiceConfig{}).Launch(200)
	if err != nil {
		t.Fatal(err)
	}
	ha, hb := hostSet(ia), hostSet(ib)
	for id := range ha {
		if _, shared := hb[id]; shared {
			t.Errorf("accounts in different groups share host %d", id)
		}
	}
}

// Observation 5: launches inside the demand window spill onto helper hosts;
// cold launches never do.
func TestObs5HelperHostsOnHotRelaunch(t *testing.T) {
	dc := newTestDC(t, 8)
	sched := dc.platform.sched
	svc := dc.Account("a1").DeployService("s", ServiceConfig{})

	first, err := svc.Launch(300)
	if err != nil {
		t.Fatal(err)
	}
	firstHosts := hostSet(first)
	svc.Disconnect()
	sched.Advance(10 * time.Minute)

	cumulative := make(map[HostID]bool)
	for id := range firstHosts {
		cumulative[id] = true
	}
	prevCum := len(cumulative)
	growths := []int{}
	for i := 0; i < 4; i++ {
		insts, err := svc.Launch(300)
		if err != nil {
			t.Fatal(err)
		}
		for id := range hostSet(insts) {
			cumulative[id] = true
		}
		growths = append(growths, len(cumulative)-prevCum)
		prevCum = len(cumulative)
		svc.Disconnect()
		sched.Advance(10 * time.Minute)
	}
	if growths[0] == 0 {
		t.Error("no helper expansion on first hot relaunch")
	}
	total := prevCum
	if total <= len(firstHosts)+10 {
		t.Errorf("cumulative %d barely exceeds base footprint %d; helper behavior missing",
			total, len(firstHosts))
	}
	// Saturation: the last relaunch should add far fewer hosts than the
	// first hot one.
	if growths[len(growths)-1] > growths[0] {
		t.Errorf("no saturation: growths %v", growths)
	}
}

func TestColdLaunchesDoNotUseHelpers(t *testing.T) {
	dc := newTestDC(t, 9)
	sched := dc.platform.sched
	svc := dc.Account("a1").DeployService("s", ServiceConfig{})
	cumulative := make(map[HostID]bool)
	for i := 0; i < 5; i++ {
		insts, err := svc.Launch(300)
		if err != nil {
			t.Fatal(err)
		}
		for id := range hostSet(insts) {
			cumulative[id] = true
		}
		svc.Disconnect()
		sched.Advance(45 * time.Minute)
	}
	if len(cumulative) > dc.profile.BasePoolSize {
		t.Errorf("cold launches reached %d hosts, beyond the base pool of %d",
			len(cumulative), dc.profile.BasePoolSize)
	}
}

// Observation 6: two services of one account have different but overlapping
// helper sets.
func TestObs6HelperSetsOverlapAcrossServices(t *testing.T) {
	dc := newTestDC(t, 10)
	acct := dc.Account("a1")
	s1 := acct.DeployService("s1", ServiceConfig{})
	s2 := acct.DeployService("s2", ServiceConfig{})
	set1 := make(map[HostID]bool)
	for _, h := range s1.policyState.(*cloudRunState).helpers {
		set1[h] = true
	}
	overlap, fresh := 0, 0
	for _, h := range s2.policyState.(*cloudRunState).helpers {
		if set1[h] {
			overlap++
		} else {
			fresh++
		}
	}
	if overlap == 0 {
		t.Error("helper sets do not overlap")
	}
	if fresh == 0 {
		t.Error("helper sets are identical; expected some fresh hosts")
	}
}

func TestWarmReuse(t *testing.T) {
	dc := newTestDC(t, 11)
	sched := dc.platform.sched
	svc := dc.Account("a1").DeployService("s", ServiceConfig{})
	first, err := svc.Launch(100)
	if err != nil {
		t.Fatal(err)
	}
	firstIDs := make(map[string]bool, len(first))
	for _, inst := range first {
		firstIDs[inst.ID()] = true
	}
	svc.Disconnect()
	sched.Advance(time.Minute) // within grace: everyone still idle
	second, err := svc.Launch(100)
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	for _, inst := range second {
		if firstIDs[inst.ID()] {
			reused++
		}
	}
	if reused != 100 {
		t.Errorf("reused %d/100 warm instances within grace period", reused)
	}
}

func TestQuotaEnforced(t *testing.T) {
	dc := newTestDC(t, 12)
	svc := dc.Account("a1").DeployService("s", ServiceConfig{})
	if _, err := svc.Launch(dc.profile.MaxInstancesPerService + 1); err == nil {
		t.Error("quota not enforced")
	}
	if _, err := svc.Launch(0); err == nil {
		t.Error("zero-instance launch accepted")
	}
}

func TestBillingActiveTimeOnly(t *testing.T) {
	dc := newTestDC(t, 13)
	sched := dc.platform.sched
	acct := dc.Account("a1")
	svc := acct.DeployService("s", ServiceConfig{Size: SizeSmall})
	if _, err := svc.Launch(10); err != nil {
		t.Fatal(err)
	}
	sched.Advance(60 * time.Second)
	svc.Disconnect()
	sched.Advance(30 * time.Minute) // idle + terminated time must not bill
	bill := acct.Bill()
	wantCPU := 10 * 60 * SizeSmall.VCPU
	if bill.VCPUSeconds < wantCPU*0.99 || bill.VCPUSeconds > wantCPU*1.01 {
		t.Errorf("vCPU-seconds = %v, want ~%v", bill.VCPUSeconds, wantCPU)
	}
	wantMem := 10 * 60 * SizeSmall.MemoryGB
	if bill.GBSeconds < wantMem*0.99 || bill.GBSeconds > wantMem*1.01 {
		t.Errorf("GB-seconds = %v, want ~%v", bill.GBSeconds, wantMem)
	}
}

func TestSizesShareBaseHosts(t *testing.T) {
	// The paper: "container instances with different resource specifications
	// share the same base hosts".
	dc := newTestDC(t, 14)
	acct := dc.Account("a1")
	small, err := acct.DeployService("small", ServiceConfig{Size: SizeSmall}).Launch(150)
	if err != nil {
		t.Fatal(err)
	}
	large, err := acct.DeployService("large", ServiceConfig{Size: SizeLarge}).Launch(150)
	if err != nil {
		t.Fatal(err)
	}
	hs, hl := hostSet(small), hostSet(large)
	shared := 0
	for id := range hs {
		if _, ok := hl[id]; ok {
			shared++
		}
	}
	if shared == 0 {
		t.Error("different sizes share no base hosts")
	}
}

func TestGen2SharesHostsWithGen1(t *testing.T) {
	dc := newTestDC(t, 15)
	acct := dc.Account("a1")
	g1, err := acct.DeployService("g1", ServiceConfig{Gen: sandbox.Gen1}).Launch(150)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := acct.DeployService("g2", ServiceConfig{Gen: sandbox.Gen2}).Launch(150)
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := hostSet(g1), hostSet(g2)
	shared := 0
	for id := range h1 {
		if _, ok := h2[id]; ok {
			shared++
		}
	}
	if shared == 0 {
		t.Error("Gen2 instances share no hosts with Gen1")
	}
	// And the Gen2 guests must actually be Gen2.
	if g2[0].MustGuest().Gen() != sandbox.Gen2 {
		t.Error("Gen2 service produced a non-Gen2 guest")
	}
}

// checkContentionSemantics runs the kernel at every threshold m from 1 to
// two past the busiest host and checks each participant against the
// live-participant count of its host, want(i): with RNG background at most
// one unit, every round observes at least want(i) units and never want(i)+2,
// and no round reads dead. A terminated participant (want 0) scores no votes
// and only dead rounds.
func checkContentionSemantics(t *testing.T, parts []*Instance, want func(i int) int) {
	t.Helper()
	const rounds = 40
	top := 0
	for i := range parts {
		top = max(top, want(i))
	}
	votes, dead := make([]int, len(parts)), make([]int, len(parts))
	for m := 1; m <= top+2; m++ {
		if err := ContentionRounds(ResourceRNG, parts, rounds, m, votes, dead); err != nil {
			t.Fatal(err)
		}
		for i := range parts {
			w := want(i)
			switch {
			case w == 0:
				if votes[i] != 0 || dead[i] != rounds {
					t.Errorf("m=%d: terminated participant %d: %d votes, %d dead rounds, want 0 and %d", m, i, votes[i], dead[i], rounds)
				}
				continue
			case dead[i] != 0:
				t.Errorf("m=%d: participant %d read dead in %d rounds", m, i, dead[i])
			case m <= w && votes[i] != rounds:
				t.Errorf("m=%d: participant %d with %d co-participants observed m units in %d of %d rounds", m, i, w, votes[i], rounds)
			case m >= w+2 && votes[i] != 0:
				t.Errorf("m=%d: participant %d with %d co-participants observed m units in %d rounds, want 0", m, i, w, votes[i])
			}
		}
	}
}

func TestContentionRoundSemantics(t *testing.T) {
	dc := newTestDC(t, 16)
	svc := dc.Account("a1").DeployService("s", ServiceConfig{})
	insts, err := svc.Launch(60)
	if err != nil {
		t.Fatal(err)
	}
	byHost := make(map[HostID]int)
	for _, inst := range insts {
		id, _ := inst.HostID()
		byHost[id]++
	}
	checkContentionSemantics(t, insts, func(i int) int {
		id, _ := insts[i].HostID()
		return byHost[id]
	})
}

func TestContentionBackgroundRate(t *testing.T) {
	dc := newTestDC(t, 17)
	svc := dc.Account("a1").DeployService("s", ServiceConfig{})
	insts, err := svc.Launch(5)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5000
	var trips [1]int
	if err := ContentionRounds(ResourceRNG, insts[:1], rounds, 2, trips[:], nil); err != nil {
		t.Fatal(err)
	}
	rate := float64(trips[0]) / rounds
	if rate > 0.015 {
		t.Errorf("background contention rate %.4f, want < 0.01ish", rate)
	}
}

func TestContentionTerminatedObserveNothing(t *testing.T) {
	dc := newTestDC(t, 18)
	svc := dc.Account("a1").DeployService("s", ServiceConfig{})
	insts, err := svc.Launch(12)
	if err != nil {
		t.Fatal(err)
	}
	svc.TerminateAll()
	checkContentionSemantics(t, insts, func(int) int { return 0 })
	// A mixed execution: live instances must not count dead participants.
	insts2, err := svc.Launch(12)
	if err != nil {
		t.Fatal(err)
	}
	mixed := append(append([]*Instance(nil), insts...), insts2...)
	byHost := make(map[HostID]int)
	for _, inst := range insts2 {
		id, _ := inst.HostID()
		byHost[id]++
	}
	checkContentionSemantics(t, mixed, func(i int) int {
		if mixed[i].State() == StateTerminated {
			return 0
		}
		id, _ := mixed[i].HostID()
		return byHost[id]
	})
}

func TestGuestErrorAfterTermination(t *testing.T) {
	dc := newTestDC(t, 19)
	svc := dc.Account("a1").DeployService("s", ServiceConfig{})
	insts, err := svc.Launch(1)
	if err != nil {
		t.Fatal(err)
	}
	svc.TerminateAll()
	if _, err := insts[0].Guest(); err == nil {
		t.Error("Guest() succeeded on terminated instance")
	}
	if insts[0].State() != StateTerminated {
		t.Error("instance not terminated")
	}
}

func TestChurnRecyclesInstances(t *testing.T) {
	dc := newTestDC(t, 20)
	sched := dc.platform.sched
	svc := dc.Account("a1").DeployService("s", ServiceConfig{})
	if _, err := svc.Launch(50); err != nil {
		t.Fatal(err)
	}
	terms := 0
	for _, inst := range svc.Instances() {
		inst.OnSIGTERM(func(*Instance, simtime.Time) { terms++ })
	}
	sched.Advance(48 * time.Hour)
	if terms == 0 {
		t.Error("no churn over 48 hours at 2%/hour")
	}
	if got := len(svc.ActiveInstances()); got != 50 {
		t.Errorf("connection count dropped to %d after churn; recycling must replace", got)
	}
}

func TestDynamicRegionResamplesBasePool(t *testing.T) {
	p := testProfile()
	p.DynamicPlacement = true
	p.DynamicResampleFrac = 0.35
	pl := MustPlatform(21, p)
	dc := pl.MustRegion("test-region")
	acct := dc.Account("a1")
	before := append([]HostID(nil), acct.basePool...)
	svc := acct.DeployService("s", ServiceConfig{})
	if _, err := svc.Launch(10); err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := range before {
		if before[i] != acct.basePool[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Error("dynamic region did not resample base pool on cold launch")
	}
}

func TestLaunchStateString(t *testing.T) {
	if StateActive.String() != "active" || StateIdle.String() != "idle" ||
		StateTerminated.String() != "terminated" || InstanceState(99).String() != "unknown" {
		t.Error("InstanceState strings wrong")
	}
}

func TestRegionLookup(t *testing.T) {
	pl := MustPlatform(22, testProfile())
	if _, err := pl.Region("nope"); err == nil {
		t.Error("unknown region lookup succeeded")
	}
	if got := pl.Regions(); len(got) != 1 || got[0] != "test-region" {
		t.Errorf("Regions() = %v", got)
	}
	if _, err := NewPlatform(1); err == nil {
		t.Error("platform with no regions accepted")
	}
	if _, err := NewPlatform(1, testProfile(), testProfile()); err == nil {
		t.Error("duplicate regions accepted")
	}
}
