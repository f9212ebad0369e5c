package faas

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"eaao/internal/simtime"
)

// loadedProfile is testProfile with background traffic on: a modest tenant
// population targeting half the region's base capacity.
func loadedProfile() RegionProfile {
	p := testProfile()
	p.Traffic = DefaultTrafficModel(60, 0.5)
	return p
}

// trafficDigest summarizes every traffic-visible observable of a region;
// two worlds in the same state produce equal digests.
func trafficDigest(dc *DataCenter) string {
	st := dc.TrafficStats()
	return fmt.Sprintf("live=%d util=%.9f tenants=%d redraws=%d rejects=%d exec=%d pending=%d mat=%d",
		st.LiveInstances, st.Utilization, st.Tenants, st.DemandRedraws, st.CongestionRejects,
		dc.platform.sched.Executed(), dc.platform.sched.Pending(), dc.MaterializedHosts())
}

func TestTrafficValidate(t *testing.T) {
	if err := (TrafficModel{}).Validate(); err != nil {
		t.Errorf("zero model invalid: %v", err)
	}
	if (TrafficModel{}).Enabled() {
		t.Error("zero model enabled")
	}
	if !DefaultTrafficModel(10, 0.5).Enabled() {
		t.Error("default model not enabled")
	}
	bad := DefaultTrafficModel(10, 0.5)
	bad.DiurnalAmplitude = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("DiurnalAmplitude 1.5 accepted")
	}
}

// TestTrafficReachesTargetUtilization pins the model's macroscopic behavior:
// after warm-up the region hovers near the configured utilization target,
// and demand keeps re-drawing (the cloud stays alive).
func TestTrafficReachesTargetUtilization(t *testing.T) {
	pl := MustPlatform(7, loadedProfile())
	dc := pl.MustRegion("test-region")
	if dc.Utilization() != 0 {
		t.Fatalf("world born with live instances: %v", dc.Utilization())
	}
	pl.Scheduler().Advance(2 * time.Hour)
	st := dc.TrafficStats()
	if st.Utilization < 0.3 || st.Utilization > 0.8 {
		t.Errorf("utilization %.2f far from 0.5 target", st.Utilization)
	}
	if st.DemandRedraws < 60 {
		t.Errorf("only %d demand re-draws in 2h across 60 tenants", st.DemandRedraws)
	}
	before := st.DemandRedraws
	pl.Scheduler().Advance(time.Hour)
	if after := dc.TrafficStats().DemandRedraws; after <= before {
		t.Error("demand re-draws stopped")
	}
}

// TestTrafficDeterministic pins seed-determinism of a loaded world: two
// builds from the same seed march through identical states.
func TestTrafficDeterministic(t *testing.T) {
	run := func() []string {
		pl := MustPlatform(11, loadedProfile())
		dc := pl.MustRegion("test-region")
		var log []string
		for i := 0; i < 4; i++ {
			pl.Scheduler().Advance(45 * time.Minute)
			log = append(log, trafficDigest(dc))
		}
		return log
	}
	diffLogs(t, "loaded determinism", run(), run())
}

// TestTrafficSnapshotForkIdentical is the satellite-2 contract: data-backed
// traffic state deep-copies, so a loaded world snapshots mid-flight and its
// forks continue byte-identically — including the load-sensitive LLC noise
// the bystanders feed.
func TestTrafficSnapshotForkIdentical(t *testing.T) {
	pl := MustPlatform(23, loadedProfile())
	dc := pl.MustRegion("test-region")
	pl.Scheduler().Advance(90 * time.Minute) // mid-flight: pending re-draw timers, live bystanders
	svc := dc.Account("attacker").DeployService("probe", ServiceConfig{})
	if _, err := svc.Launch(12); err != nil {
		t.Fatal(err)
	}

	snap, err := audited(t, pl).Snapshot()
	if err != nil {
		t.Fatalf("loaded world refused to snapshot: %v", err)
	}
	drive := func(p *Platform) []string {
		d := p.MustRegion("test-region")
		s := d.Account("attacker").DeployService("probe", ServiceConfig{})
		var log []string
		for i := 0; i < 3; i++ {
			p.Scheduler().Advance(40 * time.Minute)
			parts := s.Instances()
			votes, dead := make([]int, len(parts)), make([]int, len(parts))
			err := ContentionRounds(ResourceLLC, parts, 60, 2, votes, dead)
			log = append(log, fmt.Sprintf("%s votes=%v dead=%v err=%v", trafficDigest(d), votes, dead, err))
		}
		return log
	}
	want := drive(pl)
	diffLogs(t, "fork 1", want, drive(audited(t, snap.MustRestore())))
	diffLogs(t, "fork 2", want, drive(audited(t, snap.MustRestore())))
}

// TestTrafficSnapshotStillRefusesWorkloadClosures scopes the snapshot
// refusal: the data-backed traffic layer forks fine (above), but a legacy
// SetWorkload closure on any instance — loaded world or not — still refuses,
// because a function value captures state outside the world.
func TestTrafficSnapshotStillRefusesWorkloadClosures(t *testing.T) {
	pl := MustPlatform(29, loadedProfile())
	dc := pl.MustRegion("test-region")
	pl.Scheduler().Advance(time.Hour)
	svc := dc.Account("victim").DeployService("v", ServiceConfig{})
	insts, err := svc.Launch(2)
	if err != nil {
		t.Fatal(err)
	}
	insts[0].SetWorkload(func(simtime.Time) bool { return true })
	if _, err := pl.Snapshot(); err == nil {
		t.Fatal("snapshot accepted a SetWorkload closure on a loaded world")
	}
	insts[0].SetWorkload(nil)
	if _, err := pl.Snapshot(); err != nil {
		t.Fatalf("snapshot still refused after clearing the closure: %v", err)
	}
}

// TestTrafficCongestionShedsLaunches drives a deliberately oversubscribed
// region and checks the congestion plane sheds launches — and that shed
// launches surface as the transient ErrLaunchFault the retry machinery keys
// on.
func TestTrafficCongestionShedsLaunches(t *testing.T) {
	p := testProfile()
	p.Traffic = DefaultTrafficModel(60, 1.2)
	p.Traffic.CongestionKnee = 0.5
	p.Traffic.CongestionRejectRate = 0.6
	pl := MustPlatform(31, p)
	dc := pl.MustRegion("test-region")
	pl.Scheduler().Advance(3 * time.Hour)
	if got := dc.TrafficStats().CongestionRejects; got == 0 {
		t.Fatal("no launches shed at 120% target utilization")
	}
	// An attacker launch in the saturated region eventually sees the
	// transient fault.
	svc := dc.Account("attacker").DeployService("a", ServiceConfig{})
	sawFault := false
	for i := 0; i < 40 && !sawFault; i++ {
		if _, err := svc.Launch(10); err != nil {
			if !errors.Is(err, ErrLaunchFault) {
				t.Fatalf("unexpected launch error: %v", err)
			}
			sawFault = true
		}
		pl.Scheduler().Advance(time.Minute)
	}
	if !sawFault {
		t.Error("attacker never saw a congestion rejection in a saturated region")
	}
}

// TestTrafficQuietWorldHasNoEngine pins the zero-cost claim: a profile
// without a TrafficModel builds no engine, counts no tenants, and (per the
// golden-digest tests elsewhere) draws nothing.
func TestTrafficQuietWorldHasNoEngine(t *testing.T) {
	dc := newTestDC(t, 3)
	if dc.traffic != nil {
		t.Fatal("quiet world built a traffic engine")
	}
	st := dc.TrafficStats()
	if st.Tenants != 0 || st.DemandRedraws != 0 || st.CongestionRejects != 0 {
		t.Errorf("quiet world has traffic counters: %+v", st)
	}
}
