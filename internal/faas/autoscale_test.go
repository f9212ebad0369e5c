package faas

import (
	"strings"
	"testing"
	"time"
)

func TestAutoscaleScaleOut(t *testing.T) {
	dc := newTestDC(t, 50)
	svc := dc.Account("a").DeployService("api", ServiceConfig{MaxConcurrency: 80})
	if err := svc.SetDemand(400); err != nil {
		t.Fatal(err)
	}
	// ceil(400/80) = 5 instances, created on the first (immediate) tick.
	if got := len(svc.ActiveInstances()); got != 5 {
		t.Fatalf("active = %d, want 5", got)
	}
	// Demand rises: next tick scales out.
	if err := svc.SetDemand(2000); err != nil {
		t.Fatal(err)
	}
	dc.Scheduler().Advance(20 * time.Second)
	if got := len(svc.ActiveInstances()); got != 25 {
		t.Errorf("after surge: active = %d, want 25", got)
	}
}

func TestAutoscaleScaleInGradually(t *testing.T) {
	dc := newTestDC(t, 51)
	svc := dc.Account("a").DeployService("api", ServiceConfig{MaxConcurrency: 10})
	if err := svc.SetDemand(500); err != nil { // 50 instances
		t.Fatal(err)
	}
	dc.Scheduler().Advance(20 * time.Second)
	if got := len(svc.ActiveInstances()); got != 50 {
		t.Fatalf("active = %d", got)
	}
	if err := svc.SetDemand(100); err != nil { // target 10
		t.Fatal(err)
	}
	dc.Scheduler().Advance(20 * time.Second)
	if got := len(svc.ActiveInstances()); got != 10 {
		t.Errorf("after scale-in: active = %d, want 10", got)
	}
	// The surplus idles out through the normal grace+span reaping.
	if idle := svc.IdleCount(); idle == 0 {
		t.Error("no idle instances right after scale-in")
	}
	dc.Scheduler().Advance(15 * time.Minute)
	if got := len(svc.Instances()); got != 10 {
		t.Errorf("after reaping: %d instances, want 10", got)
	}
}

func TestAutoscaleToZero(t *testing.T) {
	dc := newTestDC(t, 52)
	svc := dc.Account("a").DeployService("api", ServiceConfig{})
	if err := svc.SetDemand(100); err != nil {
		t.Fatal(err)
	}
	dc.Scheduler().Advance(time.Minute)
	if err := svc.SetDemand(0); err != nil {
		t.Fatal(err)
	}
	dc.Scheduler().Advance(20 * time.Minute)
	if got := len(svc.Instances()); got != 0 {
		t.Errorf("%d instances survive zero demand", got)
	}
	// The autoscaler has stopped; re-setting demand restarts it.
	if err := svc.SetDemand(160); err != nil {
		t.Fatal(err)
	}
	if got := len(svc.ActiveInstances()); got != 2 {
		t.Errorf("restart: active = %d, want 2", got)
	}
}

func TestAutoscaleDefaultConcurrency(t *testing.T) {
	dc := newTestDC(t, 53)
	svc := dc.Account("a").DeployService("api", ServiceConfig{})
	if err := svc.SetDemand(DefaultMaxConcurrency + 1); err != nil {
		t.Fatal(err)
	}
	if got := len(svc.ActiveInstances()); got != 2 {
		t.Errorf("active = %d, want 2 (default concurrency 80)", got)
	}
	if svc.Demand() != DefaultMaxConcurrency+1 {
		t.Errorf("Demand() = %d", svc.Demand())
	}
}

func TestAutoscaleRejectsNegative(t *testing.T) {
	dc := newTestDC(t, 54)
	svc := dc.Account("a").DeployService("api", ServiceConfig{})
	if err := svc.SetDemand(-1); err == nil {
		t.Error("negative demand accepted")
	}
}

func TestAutoscaleQuotaCapped(t *testing.T) {
	p := testProfile()
	p.NewAccountQuota = 8
	pl := MustPlatform(55, p)
	dc := pl.MustRegion("test-region")
	svc := dc.Account("fresh").DeployService("api", ServiceConfig{MaxConcurrency: 1})
	if err := svc.SetDemand(100); err != nil {
		t.Fatal(err)
	}
	dc.Scheduler().Advance(time.Minute)
	if got := len(svc.ActiveInstances()); got != 8 {
		t.Errorf("active = %d, want the quota cap of 8", got)
	}
}

// Demand surges at short intervals trigger the same helper-host behavior as
// repeated Launches — the autoscaler is the production face of the attack
// surface.
func TestAutoscaleSurgesUseHelperHosts(t *testing.T) {
	dc := newTestDC(t, 56)
	svc := dc.Account("a").DeployService("api", ServiceConfig{MaxConcurrency: 1})
	footprint := make(map[HostID]bool)
	record := func() {
		for _, inst := range svc.ActiveInstances() {
			id, _ := inst.HostID()
			footprint[id] = true
		}
	}
	for cycle := 0; cycle < 4; cycle++ {
		if err := svc.SetDemand(300); err != nil {
			t.Fatal(err)
		}
		dc.Scheduler().Advance(time.Minute)
		record()
		if err := svc.SetDemand(20); err != nil {
			t.Fatal(err)
		}
		dc.Scheduler().Advance(10 * time.Minute)
	}
	base := dc.Profile().BasePoolSize
	if len(footprint) <= base {
		t.Errorf("surging demand stayed on %d hosts (base pool %d); helper behavior missing",
			len(footprint), base)
	}
}

// TestAutoscaleLaunchesShortfallOnly is the overshoot regression test: a
// demand step from 4 to 5 with 4 instances already connected must create
// exactly one new instance. Launch(target) is scale-to-target — active
// instances count toward the target as-is — so the autoscaler never launches
// the full target on top of the existing pool.
func TestAutoscaleLaunchesShortfallOnly(t *testing.T) {
	dc := newTestDC(t, 57)
	acct := dc.Account("a")
	svc := acct.DeployService("api", ServiceConfig{MaxConcurrency: 1})
	if err := svc.SetDemand(4); err != nil {
		t.Fatal(err)
	}
	if got := svc.ActiveCount(); got != 4 {
		t.Fatalf("active = %d, want 4", got)
	}
	created := acct.Bill().Instances
	if created != 4 {
		t.Fatalf("created = %d, want 4", created)
	}
	if err := svc.SetDemand(5); err != nil {
		t.Fatal(err)
	}
	dc.Scheduler().Advance(16 * time.Second) // one tick
	if got := svc.ActiveCount(); got != 5 {
		t.Fatalf("active = %d after demand step, want 5", got)
	}
	if delta := acct.Bill().Instances - created; delta != 1 {
		t.Fatalf("demand step 4→5 created %d instances, want exactly 1", delta)
	}
}

// TestAutoscaleQuotaFallbackCreatesNothingAtCap: once the quota fallback has
// scaled a fresh account's service to its cap, later ticks with demand still
// above quota must not create (or re-create) anything — the fallback's
// effective batch is min(quota, target) - active, which is zero at the cap.
func TestAutoscaleQuotaFallbackCreatesNothingAtCap(t *testing.T) {
	p := testProfile()
	p.NewAccountQuota = 8
	pl := MustPlatform(58, p)
	dc := pl.MustRegion("test-region")
	acct := dc.Account("fresh")
	svc := acct.DeployService("api", ServiceConfig{MaxConcurrency: 1})
	if err := svc.SetDemand(100); err != nil {
		t.Fatal(err)
	}
	dc.Scheduler().Advance(time.Minute)
	if got := svc.ActiveCount(); got != 8 {
		t.Fatalf("active = %d, want the quota cap of 8", got)
	}
	created := acct.Bill().Instances
	launches := acct.Bill().Launches
	dc.Scheduler().Advance(5 * time.Minute) // 20 more ticks at the cap
	if delta := acct.Bill().Instances - created; delta != 0 {
		t.Errorf("ticks at the quota cap created %d instances", delta)
	}
	if delta := acct.Bill().Launches - launches; delta != 0 {
		t.Errorf("ticks at the quota cap issued %d pointless launches", delta)
	}
}

// TestLaunchTotalsNeverExceedQuota pins the quota semantics satellite:
// because Launch(n) is scale-to-n, bounding n bounds the live footprint —
// no sequence of launches, disconnects and partial reaps can push the
// service's live (active + idle) instance total past the per-service quota.
func TestLaunchTotalsNeverExceedQuota(t *testing.T) {
	p := testProfile()
	p.NewAccountQuota = 8
	pl := MustPlatform(59, p)
	dc := pl.MustRegion("test-region")
	svc := dc.Account("fresh").DeployService("api", ServiceConfig{})

	if _, err := svc.Launch(9); err == nil {
		t.Fatal("Launch(9) above the quota of 8 succeeded")
	} else if want := "per-service quota of 8"; !strings.Contains(err.Error(), want) {
		t.Fatalf("quota error %q does not state the quota (%q)", err, want)
	}

	checkTotal := func(stage string) {
		t.Helper()
		if live := len(svc.Instances()); live > 8 {
			t.Fatalf("%s: %d live instances exceed the quota of 8", stage, live)
		}
	}
	for cycle := 0; cycle < 4; cycle++ {
		if _, err := svc.Launch(6); err != nil {
			t.Fatal(err)
		}
		checkTotal("launch 6")
		svc.Disconnect()
		checkTotal("disconnect")
		dc.Scheduler().Advance(4 * time.Minute) // partial reap: some idles linger
		if _, err := svc.Launch(8); err != nil {
			t.Fatal(err)
		}
		checkTotal("relaunch 8 over idles")
		dc.Scheduler().Advance(7 * time.Minute)
		checkTotal("settle")
	}
}

// TestAutoscaleTicksKeepChainOrder: two services start autoscaling at one
// instant, so their ticks tie on one 15 s grid, and the older chain must act
// first at every shared grid point — at the first tick, and after both
// parked and the younger one was woken first. A fork restored from a
// snapshot taken while both ticks are parked must act in the same order.
func TestAutoscaleTicksKeepChainOrder(t *testing.T) {
	for _, restored := range []bool{false, true} {
		name := "original"
		if restored {
			name = "restored"
		}
		t.Run(name, func(t *testing.T) {
			p := MustPlatform(61, testProfile())
			dc := p.MustRegion("test-region")
			older := dc.Account("a").DeployService("older", ServiceConfig{MaxConcurrency: 1})
			younger := dc.Account("b").DeployService("younger", ServiceConfig{MaxConcurrency: 1})
			setDemand := func(d int, svcs ...*Service) {
				t.Helper()
				for _, s := range svcs {
					if err := s.SetDemand(d); err != nil {
						t.Fatal(err)
					}
				}
			}
			// newest returns the creation seq of s's latest instance.
			newest := func(s *Service) uint32 { return s.insts[len(s.insts)-1].seq }
			setDemand(2, older, younger)
			p.Scheduler().Advance(5 * time.Second)
			setDemand(3, younger, older) // both act at the 15 s tick
			p.Scheduler().Advance(15 * time.Second)
			if older.ActiveCount() != 3 || younger.ActiveCount() != 3 || newest(older) > newest(younger) {
				t.Fatalf("first shared tick: active %d and %d, the younger chain created first: %v",
					older.ActiveCount(), younger.ActiveCount(), newest(older) > newest(younger))
			}
			if older.tickEvent.Pending() || younger.tickEvent.Pending() {
				t.Fatal("a tick with its target met did not park")
			}
			if restored {
				snap, err := audited(t, p).Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				p = audited(t, snap.MustRestore())
				dc = p.MustRegion("test-region")
				older = dc.Account("a").DeployService("older", ServiceConfig{MaxConcurrency: 1})
				younger = dc.Account("b").DeployService("younger", ServiceConfig{MaxConcurrency: 1})
			}
			setDemand(4, younger, older) // wake the younger chain first
			p.Scheduler().Advance(10 * time.Second)
			if older.ActiveCount() != 4 || younger.ActiveCount() != 4 || newest(older) > newest(younger) {
				t.Fatalf("woken tick at 30 s: active %d and %d, the younger chain created first: %v",
					older.ActiveCount(), younger.ActiveCount(), newest(older) > newest(younger))
			}
			audited(t, p)
		})
	}
}
