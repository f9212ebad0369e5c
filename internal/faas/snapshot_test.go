package faas

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"eaao/internal/sandbox"
	"eaao/internal/simtime"
)

// snapProfile is testProfile with every stochastic subsystem switched on —
// churn, fault plane, covert-channel misfires — so a snapshot has to carry
// every RNG stream's position and every kind of pending timer.
func snapProfile() RegionProfile {
	p := testProfile()
	p.InstanceChurnPerHour = 0.08
	p.Faults.PreemptionRatePerHour = 0.04
	p.Faults.LaunchFailureRate = 0.05
	p.Faults.ProbeFailureRate = 0.02
	p.Faults.ChannelFalsePositiveRate = 0.01
	return p
}

// snapPrologue drives a fresh world into a deliberately messy mid-campaign
// state: armed idle reapers, pending nursery cohorts and lifecycle timers, a
// running autoscaler, instance-list tombstones from hours of churn, and
// nonzero fault counters.
func snapPrologue(t *testing.T, p *Platform) {
	t.Helper()
	dc := p.MustRegion("test-region")
	a1 := dc.Account("a1")
	a1.Mature()
	s1 := a1.DeployService("s1", ServiceConfig{})
	s2 := a1.DeployService("s2", ServiceConfig{MaxConcurrency: 1})
	a2 := dc.Account("a2")
	s3 := a2.DeployService("s3", ServiceConfig{})

	mustLaunch := func(s *Service, n int) {
		t.Helper()
		if _, err := s.Launch(n); err != nil && n <= s.account.Quota() {
			// Fault-plane rejections are part of the scripted world; retry
			// once at a later instant so the prologue still populates state.
			p.Scheduler().Advance(time.Minute)
			if _, err := s.Launch(n); err != nil {
				t.Fatalf("launch: %v", err)
			}
		}
	}
	mustLaunch(s1, 40)
	p.Scheduler().Advance(30 * time.Minute)
	mustLaunch(s3, 12)
	// Hours of churn + preemption: terminations tombstone s1.insts and fire
	// lifecycle timers, leaving the event pool warm and counters nonzero.
	p.Scheduler().Advance(5 * time.Hour)
	mustLaunch(s1, 40) // top back up; mix of warm reuse and fresh placement
	if err := s2.SetDemand(6); err != nil {
		t.Fatal(err)
	}
	p.Scheduler().Advance(2 * time.Minute)
	s3.Disconnect() // idle reapers armed across the termination span
	// Fresh launch minutes before the snapshot: its nursery cohort is still
	// pending, so the fork must re-arm immunity-boundary state.
	p.Scheduler().Advance(10 * time.Minute)
	mustLaunch(s1, 44)
	// A demand change wakes s2's parked autoscale tick.
	if err := s2.SetDemand(3); err != nil {
		t.Fatal(err)
	}

	// The snapshot instant holds a pending event of every kind an owner
	// reseats into a fork (traffic re-draws: TestTrafficSnapshotForkIdentical).
	var reapers, lifes, decays, ticks int
	for _, a := range dc.acctSeq {
		for _, s := range a.svcSeq {
			decays += pendingCount(&s.decayEvent)
			ticks += pendingCount(&s.tickEvent)
			for _, inst := range s.insts {
				if inst != nil {
					reapers += pendingCount(&inst.termEvent)
					lifes += pendingCount(inst.lifeEvent)
				}
			}
		}
	}
	if len(dc.cohorts) < 2 || reapers == 0 || lifes == 0 || decays == 0 || ticks == 0 {
		t.Fatalf("prologue left %d nursery cohorts (want 2+), %d idle reapers, %d lifecycle timers, %d demand decays and %d autoscale ticks pending (want 1+ each)",
			len(dc.cohorts), reapers, lifes, decays, ticks)
	}
}

// pendingCount is 1 when e is a pending event, else 0.
func pendingCount(e *simtime.Event) int {
	if e != nil && e.Pending() {
		return 1
	}
	return 0
}

// driveWorld runs a fixed post-snapshot script against a platform and
// returns every observable it produces: instance identities and ground-truth
// hosts, guest reads, contention rounds, probe faults, billing, fault
// counters, and scheduler statistics. Two worlds are byte-identical iff
// these logs match.
func driveWorld(t *testing.T, p *Platform) []string {
	t.Helper()
	var log []string
	rec := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	dc := p.MustRegion("test-region")
	a1 := dc.Account("a1")
	s1 := a1.DeployService("s1", ServiceConfig{})
	s2 := a1.DeployService("s2", ServiceConfig{MaxConcurrency: 1})
	s3 := dc.Account("a2").DeployService("s3", ServiceConfig{})

	snapshotState := func(tag string) {
		rec("%s now=%v executed=%d pending=%d mat=%d", tag, p.Now(), p.Scheduler().Executed(), p.Scheduler().Pending(), dc.MaterializedHosts())
		for _, s := range []*Service{s1, s2, s3} {
			rec("%s svc=%s active=%d idle=%d hot=%d cold=%.4f", tag, s.Name(), s.ActiveCount(), s.IdleCount(), s.hotStreak, s.ColdHostFraction())
			for _, inst := range s.Instances() {
				hid, _ := inst.HostID()
				rec("%s inst=%s host=%d state=%v ready=%v", tag, inst.ID(), hid, inst.State(), inst.ReadyAt())
			}
		}
		rec("%s bill=%+v faults=%+v", tag, a1.Bill(), dc.faultCounters)
	}

	snapshotState("t0")
	if insts, err := s1.Launch(52); err != nil {
		rec("launch err=%v", err)
	} else {
		for _, inst := range insts[:8] {
			g := inst.MustGuest()
			rec("guest inst=%s tsc=%d wall=%v model=%q", inst.ID(), g.ReadTSC(), g.ReadWall(), g.CPUModelName())
		}
	}
	p.Scheduler().Advance(90 * time.Minute) // cross the immunity boundary
	parts := s1.Instances()
	votes, dead := make([]int, len(parts)), make([]int, len(parts))
	if err := ContentionRounds(ResourceRNG, parts, 60, 2, votes, dead); err != nil {
		rec("rounds err=%v", err)
	} else {
		rec("rounds votes=%v dead=%v", votes, dead)
	}
	for _, inst := range s1.Instances() {
		if inst.State() != StateTerminated {
			if units, err := ProbeContention(inst); err != nil {
				rec("probe inst=%s err", inst.ID())
			} else {
				rec("probe inst=%s units=%d", inst.ID(), units)
			}
			break
		}
	}
	if err := s2.SetDemand(0); err != nil {
		t.Fatal(err)
	}
	s1.Disconnect()
	p.Scheduler().Advance(4 * time.Hour) // reapers + churn + autoscale wind-down
	if _, err := s3.Launch(18); err != nil {
		rec("launch3 err=%v", err)
	}
	p.Scheduler().Advance(2 * time.Hour)
	snapshotState("t1")
	return log
}

// audited fails the test if any region of p fails its Audit, and returns p.
func audited(t testing.TB, p *Platform) *Platform {
	t.Helper()
	for _, r := range p.Regions() {
		if err := p.MustRegion(r).Audit(); err != nil {
			t.Fatalf("region %s: %v", r, err)
		}
	}
	return p
}

func diffLogs(t *testing.T, name string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: log length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: line %d diverges:\n  want %s\n  got  %s", name, i, want[i], got[i])
		}
	}
}

// TestSnapshotRestoreByteIdentical pins the tentpole contract: a fork is a
// byte-identical continuation of the snapshotted world. The original
// platform (which must be unperturbed by having been snapshotted), two
// independent forks, and a from-scratch rebuild of the same world all
// produce identical observable traces for the same future script.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	build := func() *Platform {
		p := MustPlatform(11, snapProfile())
		snapPrologue(t, p)
		return p
	}
	orig := audited(t, build())
	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fork1 := audited(t, snap.MustRestore())
	fork2 := audited(t, snap.MustRestore())

	logOrig := driveWorld(t, orig)
	logFork1 := driveWorld(t, fork1)
	diffLogs(t, "fork1 vs original", logOrig, logFork1)
	logFork2 := driveWorld(t, fork2)
	diffLogs(t, "fork2 vs original", logOrig, logFork2)
	// The driven worlds still hold only their own objects.
	audited(t, orig)
	audited(t, fork1)

	// fork ≡ rebuild: a world rebuilt from the root seed and driven through
	// the identical history reaches exactly the forks' trajectory.
	logFresh := driveWorld(t, build())
	diffLogs(t, "rebuild vs fork", logFork1, logFresh)
}

// TestSnapshotRestoreThenDiverge pins fork independence: forks of one
// snapshot driven through different futures diverge freely, and each future
// is itself reproducible from another restore.
func TestSnapshotRestoreThenDiverge(t *testing.T) {
	p := MustPlatform(23, snapProfile())
	snapPrologue(t, p)
	snap, err := audited(t, p).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	scriptA := func(w *Platform) []string { return driveWorld(t, w) }
	scriptB := func(w *Platform) []string {
		dc := w.MustRegion("test-region")
		s1 := dc.Account("a1").DeployService("s1", ServiceConfig{})
		w.Scheduler().Advance(7 * time.Hour)
		var log []string
		log = append(log, fmt.Sprintf("b now=%v executed=%d active=%d", w.Now(), w.Scheduler().Executed(), s1.ActiveCount()))
		return log
	}
	logA1 := scriptA(audited(t, snap.MustRestore()))
	logB1 := scriptB(audited(t, snap.MustRestore()))
	logA2 := scriptA(audited(t, snap.MustRestore()))
	logB2 := scriptB(audited(t, snap.MustRestore()))
	diffLogs(t, "script A reproducible", logA1, logA2)
	diffLogs(t, "script B reproducible", logB1, logB2)
	if len(logA1) == len(logB1) && logA1[0] == logB1[0] {
		t.Fatal("different scripts produced identical logs — forks are not independent")
	}
	// The frozen snapshot survives its forks' divergence.
	logA3 := scriptA(audited(t, snap.MustRestore()))
	diffLogs(t, "snapshot immutable under forking", logA1, logA3)
}

// TestSnapshotFleetShardMatchesSolo pins snapshot transparency across the
// fleet construction: forking a fleet shard's platform behaves identically
// to forking the same region built as its own solo platform.
func TestSnapshotFleetShardMatchesSolo(t *testing.T) {
	prof := snapProfile()
	other := snapProfile()
	other.Name = "other-region"
	fleet, err := NewFleet(31, prof, other)
	if err != nil {
		t.Fatal(err)
	}
	shard := fleet.MustRegion("test-region").Platform()
	solo := MustPlatform(31, prof)
	snapPrologue(t, shard)
	snapPrologue(t, solo)

	shardSnap, err := audited(t, shard).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	soloSnap, err := audited(t, solo).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	diffLogs(t, "fleet shard fork vs solo fork",
		driveWorld(t, audited(t, soloSnap.MustRestore())), driveWorld(t, audited(t, shardSnap.MustRestore())))
}

// TestSnapshotRejectsOutsideState pins every documented snapshot error:
// state living outside the world cannot be deep-copied, and Snapshot must
// say so instead of forking a silently-diverging world.
func TestSnapshotRejectsOutsideState(t *testing.T) {
	newWorld := func() (*Platform, *Service) {
		p := MustPlatform(7, testProfile())
		svc := p.MustRegion("test-region").Account("a").DeployService("s", ServiceConfig{})
		if _, err := svc.Launch(5); err != nil {
			t.Fatal(err)
		}
		return p, svc
	}

	t.Run("sigterm callback", func(t *testing.T) {
		p, svc := newWorld()
		svc.Instances()[0].OnSIGTERM(func(*Instance, simtime.Time) {})
		if _, err := p.Snapshot(); err == nil {
			t.Fatal("snapshot accepted an OnSIGTERM callback")
		}
	})
	t.Run("workload model", func(t *testing.T) {
		p, svc := newWorld()
		svc.Instances()[0].SetWorkload(func(simtime.Time) bool { return true })
		if _, err := p.Snapshot(); err == nil {
			t.Fatal("snapshot accepted a workload model")
		}
	})
	t.Run("placement tracer", func(t *testing.T) {
		p, _ := newWorld()
		p.MustRegion("test-region").SetPlacementTracer(NewTraceRing(8))
		if _, err := p.Snapshot(); err == nil {
			t.Fatal("snapshot accepted an installed tracer")
		}
	})
	t.Run("experiment closure event", func(t *testing.T) {
		p, _ := newWorld()
		var ev simtime.Event
		p.Scheduler().ArmHandlerAfter(&ev, time.Hour, closureHandler(func(simtime.Time) {}))
		if _, err := p.Snapshot(); err == nil {
			t.Fatal("snapshot accepted a pending closure event")
		}
	})
}

// pendingLifeEvent returns the pending lifecycle timer of one of s's
// instances.
func pendingLifeEvent(t *testing.T, s *Service) *simtime.Event {
	t.Helper()
	for _, inst := range s.Instances() {
		if pendingCount(inst.lifeEvent) == 1 {
			return inst.lifeEvent
		}
	}
	t.Fatal("no pending lifecycle timer")
	return nil
}

// closureHandler fires a closure the experiment owns, outside the world.
type closureHandler func(simtime.Time)

func (f closureHandler) HandleEvent(_ *simtime.Event, now simtime.Time) { f(now) }

// loadedWorld builds perfbench's campaign-loaded set-up: quarter-scale
// us-east1 (125 hosts) at 0.70 bystander load, warmed up for 2 h, with 60
// Gen 1 victims launched (shed launches retried every 15 s, up to 8 times).
func loadedWorld(tb testing.TB, seed uint64) *Platform {
	tb.Helper()
	p := USEast1Profile()
	p.NumHosts = 125
	p.PlacementGroups = 5
	p.BasePoolSize = 24
	p.AccountHelperPool = 65
	p.ServiceHelperSize = 48
	p.ServiceHelperFresh = 4
	p.Traffic = DefaultTrafficModel(p.NumHosts, 0.70)
	pl := MustPlatform(seed, p)
	pl.Scheduler().Advance(2 * time.Hour)
	svc := pl.MustRegion(p.Name).Account("victim").DeployService("v", ServiceConfig{Gen: sandbox.Gen1})
	_, err := svc.Launch(60)
	for tries := 0; errors.Is(err, ErrLaunchFault) && tries < 8; tries++ {
		pl.Scheduler().Advance(15 * time.Second)
		_, err = svc.Launch(60)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return pl
}

// BenchmarkSnapshotRestore measures one fork of a busy world (loadedWorld),
// the restore every campaign-loaded op pays.
func BenchmarkSnapshotRestore(b *testing.B) {
	snap, err := loadedWorld(b, 1000).Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.MustRestore()
	}
}

// TestAuditCatchesCorruption corrupts one fork per Audit check and requires
// the audit to fail; an untouched fork, and a terminated nursery member of
// another world, must pass. (simtime's TestSeatedCatchesCorruption breaks
// the heap order itself, which needs the queue's internals.)
func TestAuditCatchesCorruption(t *testing.T) {
	p := MustPlatform(11, snapProfile())
	snapPrologue(t, p)
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// other is a second world built the same way: its hosts and instances
	// match the fork's ids and slots, but are not the fork's.
	other := MustPlatform(11, snapProfile())
	snapPrologue(t, other)
	odc := other.MustRegion("test-region")
	oinst := odc.Account("a1").DeployService("s1", ServiceConfig{}).Instances()[0]

	cases := []struct {
		name    string
		corrupt func(dc *DataCenter, s *Service, inst *Instance)
		ok      bool
	}{
		{"untouched", func(*DataCenter, *Service, *Instance) {}, true},
		{"host slice", func(dc *DataCenter, _ *Service, _ *Instance) { dc.hosts[3] = odc.hosts[3] }, false},
		// Pools are shared with the snapshot, so a corruption replaces the
		// slice (copy-on-write) rather than writing into it.
		{"base pool", func(dc *DataCenter, s *Service, _ *Instance) {
			s.account.basePool = append([]HostID{HostID(len(dc.hosts))}, s.account.basePool[1:]...)
		}, false},
		{"account helpers", func(_ *DataCenter, s *Service, _ *Instance) {
			s.account.helpers = append([]HostID{-1}, s.account.helpers[1:]...)
		}, false},
		{"service helper set", func(dc *DataCenter, s *Service, _ *Instance) {
			st := s.policyState.(*cloudRunState)
			s.policyState = &cloudRunState{helpers: append(append([]HostID(nil), st.helpers[1:]...), HostID(len(dc.hosts)+7))}
		}, false},
		{"instance host", func(_ *DataCenter, _ *Service, inst *Instance) { inst.host = odc.hosts[inst.host.id] }, false},
		{"guest env", func(_ *DataCenter, _ *Service, inst *Instance) {
			inst.guestStore.CloneInto(&inst.guestStore, odc.hosts[inst.host.id])
		}, false},
		{"host resident", func(_ *DataCenter, _ *Service, inst *Instance) { inst.host.instances[inst.hostSlot] = oinst }, false},
		{"host slot", func(_ *DataCenter, _ *Service, inst *Instance) { inst.hostSlot++ }, false},
		{"service slot", func(_ *DataCenter, s *Service, inst *Instance) { s.insts[inst.slot] = oinst }, false},
		{"tombstones", func(_ *DataCenter, s *Service, _ *Instance) { s.deadInsts++ }, false},
		{"active count", func(_ *DataCenter, s *Service, _ *Instance) { s.activeCount++ }, false},
		{"autoscale wake", func(dc *DataCenter, _ *Service, _ *Instance) {
			// A demand change that skips its wake leaves the tick parked
			// with the new target unmet (the prologue's autoscaler is
			// parked by now; Cancel makes sure).
			s2 := dc.Account("a1").DeployService("s2", ServiceConfig{MaxConcurrency: 1})
			dc.platform.sched.Cancel(&s2.tickEvent)
			s2.demand++
		}, false},
		{"nursery member", func(dc *DataCenter, _ *Service, _ *Instance) {
			c := dc.cohorts[0]
			c.insts = append(c.insts, oinst)
		}, false},
		{"terminated nursery member", func(dc *DataCenter, _ *Service, _ *Instance) {
			dead := *oinst
			dead.state = StateTerminated
			c := dc.cohorts[0]
			c.insts = append(c.insts, &dead)
		}, true},
		{"fired cohort", func(dc *DataCenter, _ *Service, _ *Instance) {
			dc.platform.sched.Cancel(&dc.cohorts[0].ev)
		}, false},
		{"cohort order", func(dc *DataCenter, _ *Service, _ *Instance) {
			dc.cohorts[0], dc.cohorts[1] = dc.cohorts[1], dc.cohorts[0]
		}, false},
		{"free list live timer", func(dc *DataCenter, s *Service, _ *Instance) {
			dc.lifeFree = append(dc.lifeFree, pendingLifeEvent(t, s))
		}, false},
		{"free list live stopped timer", func(dc *DataCenter, s *Service, _ *Instance) {
			// Stopped but still the instance's: only the owner check sees it.
			e := pendingLifeEvent(t, s)
			dc.platform.sched.Cancel(e)
			dc.lifeFree = append(dc.lifeFree, e)
		}, false},
		{"free list repeat", func(dc *DataCenter, _ *Service, _ *Instance) {
			e := dc.allocLifeEvent()
			dc.lifeFree = append(dc.lifeFree, e, e)
		}, false},
		{"free list idle slot", func(dc *DataCenter, _ *Service, _ *Instance) {
			dc.lifeFree = append(dc.lifeFree, dc.allocLifeEvent())
		}, true},
		{"heap slots", func(_ *DataCenter, s *Service, _ *Instance) {
			// Two pending lifecycle timers trade values, heap positions
			// included, behind the queue's back.
			var evs []*simtime.Event
			for _, inst := range s.Instances() {
				if pendingCount(inst.lifeEvent) == 1 {
					evs = append(evs, inst.lifeEvent)
				}
			}
			*evs[0], *evs[1] = *evs[1], *evs[0]
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dc := snap.MustRestore().MustRegion("test-region")
			s := dc.Account("a1").DeployService("s1", ServiceConfig{})
			c.corrupt(dc, s, s.Instances()[0])
			if err := dc.Audit(); (err == nil) != c.ok {
				t.Fatalf("audit after corrupting the %s: %v", c.name, err)
			}
		})
	}
}

// dynamicWorld is a DynamicPlacement region with one deployed service that
// has never launched, so its first launch in any fork is cold and resamples
// the account's base pool.
func dynamicWorld(t *testing.T) *Snapshot {
	t.Helper()
	p := testProfile()
	p.DynamicPlacement = true
	p.DynamicResampleFrac = 0.35
	pl := MustPlatform(21, p)
	pl.MustRegion("test-region").Account("a1").DeployService("s", ServiceConfig{})
	snap, err := pl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// coldLaunch launches in w's dynamic service and returns the account's base
// pool after the resample, then each new instance's id and host.
func coldLaunch(t testing.TB, w *Platform) []string {
	a := w.MustRegion("test-region").Account("a1")
	insts, err := a.DeployService("s", ServiceConfig{}).Launch(10)
	if err != nil {
		t.Error(err) // not Fatal: concurrent forks call this off the test goroutine
	}
	log := []string{fmt.Sprint(a.basePool)}
	for _, inst := range insts {
		log = append(log, fmt.Sprintf("%s@%d", inst.ID(), inst.host.id))
	}
	return log
}

// TestSnapshotSharedPoolsCopyOnWrite pins that sharing pools between a
// snapshot and its forks is safe: a fork's cold launch resamples its base
// pool into a new slice, leaving the snapshot's and a sibling fork's pools
// element for element as they were, and a third fork replays the launch.
func TestSnapshotSharedPoolsCopyOnWrite(t *testing.T) {
	snap := dynamicWorld(t)
	pool := func(w *Platform) []HostID { return w.MustRegion("test-region").Account("a1").basePool }
	want := append([]HostID(nil), pool(snap.world)...)
	fork1, fork2 := snap.MustRestore(), snap.MustRestore()
	log1 := coldLaunch(t, audited(t, fork1))
	if slices.Equal(pool(fork1), want) {
		t.Fatal("the cold launch did not resample the base pool")
	}
	for name, got := range map[string][]HostID{"snapshot": pool(snap.world), "sibling fork": pool(fork2)} {
		if !slices.Equal(got, want) {
			t.Errorf("%s base pool changed by a fork's resample:\n  got  %v\n  want %v", name, got, want)
		}
	}
	diffLogs(t, "third fork replays the first", log1, coldLaunch(t, audited(t, snap.MustRestore())))
	audited(t, fork1)
}

// TestSnapshotSharedPoolsConcurrentForks restores and resamples from one
// snapshot on two goroutines; under -race it fails if forks write into what
// they share.
func TestSnapshotSharedPoolsConcurrentForks(t *testing.T) {
	snap := dynamicWorld(t)
	logs := make([][]string, 2)
	var wg sync.WaitGroup
	for g := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[g] = coldLaunch(t, snap.MustRestore())
		}()
	}
	wg.Wait()
	diffLogs(t, "concurrent forks", logs[0], logs[1])
}

// restoreAllocBudget is the measured allocation count of one restore of
// loadedWorld(1000), 1,446, plus 10%. Per-fork copies of what forks share
// (pools, helper sets, the immutable policy state) push a restore over it.
const restoreAllocBudget = 1590

// TestSnapshotRestoreAllocs holds a busy world's restore to its allocation
// budget.
func TestSnapshotRestoreAllocs(t *testing.T) {
	snap, err := loadedWorld(t, 1000).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() { snap.MustRestore() })
	t.Logf("%.0f allocations per restore", allocs)
	if allocs > restoreAllocBudget {
		t.Errorf("a restore allocates %.0f times, budget %d", allocs, restoreAllocBudget)
	}
}
