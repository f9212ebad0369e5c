package faas

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"eaao/internal/sandbox"
	"eaao/internal/simtime"
)

// TestPlatformInvariantsUnderRandomOps drives the platform through random
// operation sequences (launch, disconnect, advance, terminate across several
// services) and checks structural invariants after every step:
//
//   - every live instance is attached to exactly the host it reports;
//   - no terminated instance remains attached to any host;
//   - the per-service instance list contains no terminated entries;
//   - billing counters never decrease.
func TestPlatformInvariantsUnderRandomOps(t *testing.T) {
	check := func(dc *DataCenter, acct *Account) error {
		for _, svc := range acct.svcSeq {
			for _, inst := range svc.insts {
				if inst == nil {
					continue
				}
				if inst.state == StateTerminated {
					t.Fatalf("terminated instance %s still listed in service", inst.ID())
				}
				if inst.hostSlot >= len(inst.host.instances) || inst.host.instances[inst.hostSlot] != inst {
					t.Fatalf("instance %s not attached to its host", inst.ID())
				}
			}
		}
		for _, h := range dc.hosts {
			for _, inst := range h.instances {
				if inst.state == StateTerminated {
					t.Fatalf("host %d retains terminated instance %s", h.id, inst.ID())
				}
			}
		}
		return nil
	}

	f := func(seed uint16, rawOps []uint16) bool {
		pl := MustPlatform(uint64(seed)+500, testProfile())
		dc := pl.MustRegion("test-region")
		acct := dc.Account("stress")
		names := []string{"s0", "s1", "s2"}
		for _, n := range names {
			acct.DeployService(n, ServiceConfig{})
		}
		var lastCPU float64
		for _, raw := range rawOps {
			svc := acct.services[names[int(raw>>8)%len(names)]]
			switch raw % 4 {
			case 0:
				n := int(raw%97) + 1
				if _, err := svc.Launch(n); err != nil {
					return false
				}
			case 1:
				svc.Disconnect()
			case 2:
				pl.Scheduler().Advance(time.Duration(raw%600) * time.Second)
			case 3:
				svc.TerminateAll()
			}
			check(dc, acct)
			bill := acct.Bill()
			if bill.VCPUSeconds < lastCPU {
				t.Fatalf("billing decreased: %v -> %v", lastCPU, bill.VCPUSeconds)
			}
			lastCPU = bill.VCPUSeconds
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Launching while already connected keeps existing active instances.
func TestRelaunchKeepsActiveInstances(t *testing.T) {
	dc := newTestDC(t, 40)
	svc := dc.Account("a").DeployService("s", ServiceConfig{})
	first, err := svc.Launch(30)
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.Launch(50)
	if err != nil {
		t.Fatal(err)
	}
	// All 30 active instances must be reused within the 50.
	set := make(map[string]bool)
	for _, inst := range second {
		set[inst.ID()] = true
	}
	for _, inst := range first {
		if !set[inst.ID()] {
			t.Errorf("active instance %s dropped on scale-out", inst.ID())
		}
	}
	if got := len(svc.ActiveInstances()); got != 50 {
		t.Errorf("active = %d, want 50", got)
	}
}

// Scale-in: launching fewer connections than are active leaves the rest
// active (connections are what the caller holds; Launch(n) ensures at least
// n). The extra instances idle out only when the caller disconnects.
func TestDisconnectIdempotent(t *testing.T) {
	dc := newTestDC(t, 41)
	svc := dc.Account("a").DeployService("s", ServiceConfig{})
	if _, err := svc.Launch(20); err != nil {
		t.Fatal(err)
	}
	svc.Disconnect()
	idleBefore := svc.IdleCount()
	svc.Disconnect() // second disconnect must be a no-op
	if svc.IdleCount() != idleBefore {
		t.Error("double disconnect changed idle count")
	}
	dc.Scheduler().Advance(20 * time.Minute)
	if len(svc.Instances()) != 0 {
		t.Errorf("%d instances survived the idle reaper", len(svc.Instances()))
	}
}

func TestNewAccountQuota(t *testing.T) {
	p := testProfile()
	p.NewAccountQuota = 10
	pl := MustPlatform(42, p)
	dc := pl.MustRegion("test-region")
	acct := dc.Account("fresh")
	svc := acct.DeployService("s", ServiceConfig{})
	if _, err := svc.Launch(11); err == nil {
		t.Error("fresh account exceeded its quota")
	}
	if _, err := svc.Launch(10); err != nil {
		t.Errorf("launch at quota failed: %v", err)
	}
	acct.Mature()
	if _, err := svc.Launch(500); err != nil {
		t.Errorf("mature account still capped: %v", err)
	}
	if acct.Quota() != p.MaxInstancesPerService {
		t.Errorf("mature quota = %d", acct.Quota())
	}
}

func TestProbeContention(t *testing.T) {
	dc := newTestDC(t, 43)
	svc := dc.Account("a").DeployService("s", ServiceConfig{})
	insts, err := svc.Launch(40)
	if err != nil {
		t.Fatal(err)
	}
	// Find two co-located instances.
	byHost := make(map[HostID][]*Instance)
	for _, inst := range insts {
		id, _ := inst.HostID()
		byHost[id] = append(byHost[id], inst)
	}
	var a, b *Instance
	for _, group := range byHost {
		if len(group) >= 2 {
			a, b = group[0], group[1]
			break
		}
	}
	if a == nil {
		t.Fatal("no co-located pair")
	}
	// With no workload set, probes mostly read zero.
	zeros := 0
	for i := 0; i < 100; i++ {
		u, err := ProbeContention(a)
		if err != nil {
			t.Fatal(err)
		}
		if u == 0 {
			zeros++
		}
	}
	if zeros < 90 {
		t.Errorf("only %d/100 quiet probes with no workload", zeros)
	}
	// With the neighbor executing, every probe reads its pressure.
	b.SetWorkload(func(simtime.Time) bool { return true })
	for i := 0; i < 20; i++ {
		u, err := ProbeContention(a)
		if err != nil {
			t.Fatal(err)
		}
		if u < 1 {
			t.Fatal("probe missed an executing co-resident workload")
		}
	}
	// The prober never observes itself.
	a.SetWorkload(func(simtime.Time) bool { return true })
	b.SetWorkload(nil)
	selfHits := 0
	for i := 0; i < 100; i++ {
		u, err := ProbeContention(a)
		if err != nil {
			t.Fatal(err)
		}
		if u > 0 {
			selfHits++
		}
	}
	if selfHits > 10 {
		t.Errorf("prober observed its own workload %d/100 times", selfHits)
	}
	// Terminated probers fail.
	svc.TerminateAll()
	if _, err := ProbeContention(a); err == nil {
		t.Error("probe from terminated instance succeeded")
	}
}

func TestRandomPlacementDefense(t *testing.T) {
	p := testProfile()
	p.Policy = RandomUniformPolicy{}
	pl := MustPlatform(60, p)
	dc := pl.MustRegion("test-region")

	// Two accounts' launches under random placement are no longer confined
	// to disjoint base pools: footprints scatter across the whole fleet.
	ia, err := dc.Account("a").DeployService("s", ServiceConfig{}).Launch(300)
	if err != nil {
		t.Fatal(err)
	}
	ha := hostSet(ia)
	if len(ha) < p.NumHosts/6 {
		t.Errorf("random placement used only %d hosts", len(ha))
	}
	// Repeat launches explore new hosts: cumulative footprint grows fast,
	// unlike the flat base-host behavior.
	svc := dc.Account("a").DeployService("s2", ServiceConfig{})
	cumulative := make(map[HostID]bool)
	var first int
	for l := 0; l < 3; l++ {
		insts, err := svc.Launch(300)
		if err != nil {
			t.Fatal(err)
		}
		for id := range hostSet(insts) {
			cumulative[id] = true
		}
		if l == 0 {
			first = len(cumulative)
		}
		svc.Disconnect()
		dc.Scheduler().Advance(45 * time.Minute)
	}
	if len(cumulative) < first*3/2 {
		t.Errorf("random placement cumulative %d barely grew from %d", len(cumulative), first)
	}
	// And the defense's cost: almost every placement is image-cold.
	if f := svc.ColdHostFraction(); f < 0.5 {
		t.Errorf("cold host fraction = %v; random placement should destroy locality", f)
	}
}

func TestBasePlacementPreservesLocality(t *testing.T) {
	dc := newTestDC(t, 61)
	svc := dc.Account("a").DeployService("s", ServiceConfig{})
	for l := 0; l < 4; l++ {
		if _, err := svc.Launch(300); err != nil {
			t.Fatal(err)
		}
		svc.Disconnect()
		dc.Scheduler().Advance(45 * time.Minute)
	}
	// With base-host affinity, later launches mostly reuse image-warm
	// hosts: the cold fraction decays toward (hosts used)/(instances).
	if f := svc.ColdHostFraction(); f > 0.4 {
		t.Errorf("cold host fraction = %v under affinity placement", f)
	}
}

func TestStartupLatencyGen1FasterThanGen2(t *testing.T) {
	dc := newTestDC(t, 70)
	acct := dc.Account("a")
	measure := func(gen sandbox.Gen, name string) (median, max time.Duration) {
		svc := acct.DeployService(name, ServiceConfig{Gen: gen})
		// Warm the image caches first so the comparison isolates the
		// sandbox startup (the §2.3 difference), not the image pull.
		if _, err := svc.Launch(200); err != nil {
			t.Fatal(err)
		}
		svc.Disconnect()
		dc.Scheduler().Advance(45 * time.Minute)
		insts, err := svc.Launch(200)
		if err != nil {
			t.Fatal(err)
		}
		var lats []time.Duration
		for _, inst := range insts {
			l := inst.StartupLatency()
			if l <= 0 {
				t.Fatalf("non-positive startup latency %v", l)
			}
			lats = append(lats, l)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[len(lats)/2], lats[len(lats)-1]
	}
	g1med, _ := measure(sandbox.Gen1, "g1")
	g2med, _ := measure(sandbox.Gen2, "g2")
	if g2med < g1med*3 {
		t.Errorf("Gen2 median startup %v not clearly slower than Gen1 %v", g2med, g1med)
	}
}

func TestWarmHostsStartFaster(t *testing.T) {
	dc := newTestDC(t, 71)
	svc := dc.Account("a").DeployService("s", ServiceConfig{})
	first, err := svc.Launch(200)
	if err != nil {
		t.Fatal(err)
	}
	med := func(insts []*Instance) time.Duration {
		var lats []time.Duration
		for _, inst := range insts {
			lats = append(lats, inst.StartupLatency())
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[len(lats)/2]
	}
	coldMed := med(first)
	svc.Disconnect()
	dc.Scheduler().Advance(45 * time.Minute)
	second, err := svc.Launch(200)
	if err != nil {
		t.Fatal(err)
	}
	warmMed := med(second)
	// The second launch reuses image-warm hosts: no pull, ~20x faster.
	if warmMed*5 > coldMed {
		t.Errorf("warm-launch median %v not clearly faster than cold %v", warmMed, coldMed)
	}
	// Warm REUSE (idle instances reconnected) has zero extra startup.
	svc.Disconnect()
	dc.Scheduler().Advance(30 * time.Second)
	third, err := svc.Launch(50)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range third {
		if inst.ReadyAt().After(dc.Now()) {
			t.Fatal("warm-reused instance not ready")
		}
	}
}

// TestProbeContentionNoisePinned pins the background-noise draw of
// ProbeContention: a spy alone on its host reads a unit only when its host's
// noise stream fires (0.8% of probes), so the indices of those probes are a
// fingerprint of the stream's position. An extra or reordered draw on the
// host noise stream before or inside the probe moves them.
func TestProbeContentionNoisePinned(t *testing.T) {
	dc := newTestDC(t, 44)
	insts, err := dc.Account("spy").DeployService("s", ServiceConfig{}).Launch(1)
	if err != nil {
		t.Fatal(err)
	}
	spy := insts[0]
	if n := len(spy.host.instances); n != 1 {
		t.Fatalf("spy shares its host with %d instances, want none", n-1)
	}
	var hits []int
	for i := 0; i < 4000; i++ {
		u, err := ProbeContention(spy)
		if err != nil {
			t.Fatal(err)
		}
		if u > 0 {
			hits = append(hits, i)
		}
	}
	want := []int{61, 102, 151, 176, 433, 602, 645, 778, 1223, 1263, 1280, 1303, 1410, 1430, 1500, 1509,
		1929, 2160, 2186, 2335, 2400, 2517, 2752, 2782, 2791, 3377, 3544, 3598, 3753, 3913, 3918, 3950}
	if !slices.Equal(hits, want) {
		t.Errorf("noisy probes at %v\nwant %v", hits, want)
	}
}
