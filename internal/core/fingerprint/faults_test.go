package fingerprint

import (
	"errors"
	"testing"
	"time"

	"eaao/internal/faas"
	"eaao/internal/sandbox"
)

// faultTestWorld is testWorld with a fault plan installed on the region.
func faultTestWorld(t *testing.T, seed uint64, n int, plan faas.FaultPlan) (*faas.Platform, []*faas.Instance) {
	t.Helper()
	p := faas.USEast1Profile()
	p.Name = "t"
	p.NumHosts = 150
	p.PlacementGroups = 3
	p.BasePoolSize = 40
	p.AccountHelperPool = 60
	p.ServiceHelperSize = 45
	p.ServiceHelperFresh = 5
	p.Faults = plan
	pl := faas.MustPlatform(seed, p)
	svc := pl.MustRegion("t").Account("a").DeployService("s", faas.ServiceConfig{})
	insts, err := svc.Launch(n)
	if err != nil {
		t.Fatal(err)
	}
	return pl, insts
}

// With probe faults certain, every collection fails — and fails loudly with
// the sentinel the attack layer retries on, never with a silently wrong
// sample.
func TestCollectFailsWithProbeFaultSentinel(t *testing.T) {
	_, insts := faultTestWorld(t, 3, 3, faas.FaultPlan{ProbeFailureRate: 1})
	if _, err := CollectGen1(insts[0].MustGuest()); !errors.Is(err, sandbox.ErrProbeFault) {
		t.Errorf("CollectGen1 error = %v, want ErrProbeFault", err)
	}
	if _, err := CollectGen2(insts[1].MustGuest()); !errors.Is(err, sandbox.ErrProbeFault) {
		t.Errorf("CollectGen2 error = %v, want ErrProbeFault", err)
	}
}

// A faulted frequency-measurement repetition must never be silently
// classifiable: any measurement containing a faulted sample blows StdHz past
// the usability threshold, even when every repetition faulted (identical
// corruption would otherwise yield a deceptively small deviation).
func TestFaultedFrequencyMeasurementNeverUsable(t *testing.T) {
	pl, insts := faultTestWorld(t, 4, 2, faas.FaultPlan{ProbeFailureRate: 1})
	m, err := MeasureFrequency(insts[0].MustGuest(), pl.Scheduler(), 100*time.Millisecond, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Usable() {
		t.Errorf("fully faulted measurement classified usable (StdHz %.0f)", m.StdHz)
	}
}
