package faas

import (
	"fmt"
	"testing"
	"time"

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
	orig := build()
	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fork1 := snap.MustRestore()
	fork2 := snap.MustRestore()

	logOrig := driveWorld(t, orig)
	logFork1 := driveWorld(t, fork1)
	diffLogs(t, "fork1 vs original", logOrig, logFork1)
	logFork2 := driveWorld(t, fork2)
	diffLogs(t, "fork2 vs original", logOrig, logFork2)

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
	snap, err := p.Snapshot()
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
	logA1 := scriptA(snap.MustRestore())
	logB1 := scriptB(snap.MustRestore())
	logA2 := scriptA(snap.MustRestore())
	logB2 := scriptB(snap.MustRestore())
	diffLogs(t, "script A reproducible", logA1, logA2)
	diffLogs(t, "script B reproducible", logB1, logB2)
	if len(logA1) == len(logB1) && logA1[0] == logB1[0] {
		t.Fatal("different scripts produced identical logs — forks are not independent")
	}
	// The frozen snapshot survives its forks' divergence.
	logA3 := scriptA(snap.MustRestore())
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

	shardSnap, err := shard.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	soloSnap, err := solo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	diffLogs(t, "fleet shard fork vs solo fork",
		driveWorld(t, soloSnap.MustRestore()), driveWorld(t, shardSnap.MustRestore()))
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

// closureHandler fires a closure the experiment owns, outside the world.
type closureHandler func(simtime.Time)

func (f closureHandler) HandleEvent(_ *simtime.Event, now simtime.Time) { f(now) }
