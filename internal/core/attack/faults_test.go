package attack

import (
	"errors"
	"strings"
	"testing"
	"time"

	"eaao/internal/faas"
	"eaao/internal/sandbox"
)

// faultySmallWorld is smallWorld with a fault plan installed on the region.
func faultySmallWorld(t *testing.T, seed uint64, plan faas.FaultPlan) *faas.DataCenter {
	t.Helper()
	p := smallProfile("t")
	p.Faults = plan
	return faas.MustPlatform(seed, p).MustRegion("t")
}

// A campaign with a retry budget survives a heavily fault-injected launch
// plane; the same campaign without one dies on the first rejected wave. The
// recovery is fully metered: retry count, backoff wall-clock, and held-
// footprint dollars all land in the fault ledger (and its String section).
func TestCampaignRetriesLaunchFaults(t *testing.T) {
	plan := faas.FaultPlan{LaunchFailureRate: 0.5}
	cfg := smallCfg()
	cfg.LaunchRetries = 8
	cfg.RetryBackoff = 30 * time.Second

	c, err := NewCampaign(faultySmallWorld(t, 12, plan).Account("attacker"), cfg, sandbox.Gen1, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Launch()
	if err != nil {
		t.Fatalf("hardened campaign died: %v", err)
	}
	if len(res.Live) != cfg.Services*cfg.InstancesPerLaunch {
		t.Errorf("live footprint %d, want %d", len(res.Live), cfg.Services*cfg.InstancesPerLaunch)
	}
	st := c.Stats()
	if st.LaunchRetries == 0 {
		t.Fatal("rate-0.5 launch plane triggered no retries")
	}
	if st.RetryBackoffWall == 0 {
		t.Error("retries recorded but no backoff wall-clock")
	}
	if st.FaultUSD <= 0 {
		t.Error("backoff held a resident footprint but attributed no cost")
	}
	if !st.FaultRecovery() {
		t.Error("FaultRecovery false despite retries")
	}
	if !strings.Contains(st.String(), "faults:") {
		t.Error("ledger string omits the fault section")
	}
	// Only successful waves count as launched instances: every wave appears
	// exactly once no matter how many times it was re-issued.
	if st.InstancesLaunched != st.Waves*cfg.InstancesPerLaunch {
		t.Errorf("instances %d != %d waves x %d", st.InstancesLaunched, st.Waves, cfg.InstancesPerLaunch)
	}
}

func TestUnhardenedCampaignDiesOnLaunchFault(t *testing.T) {
	plan := faas.FaultPlan{LaunchFailureRate: 0.5}
	c, err := NewCampaign(faultySmallWorld(t, 12, plan).Account("attacker"), smallCfg(), sandbox.Gen1, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch(); !errors.Is(err, faas.ErrLaunchFault) {
		t.Fatalf("unhardened launch error = %v, want ErrLaunchFault", err)
	}
}

// A probe-retry budget carries Verify through transient probe faults —
// retried where possible, skipped (and counted) where the budget runs out —
// while the budget-free campaign fails outright.
func TestVerifyProbeRetryBudget(t *testing.T) {
	plan := faas.FaultPlan{ProbeFailureRate: 0.2}
	run := func(budget int) (CampaignStats, error) {
		dc := faultySmallWorld(t, 19, plan)
		vic, err := dc.Account("victim").DeployService("v", faas.ServiceConfig{}).Launch(40)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallCfg()
		cfg.ProbeRetryBudget = budget
		c, err := NewCampaign(dc.Account("attacker"), cfg, sandbox.Gen1, OptimizedStrategy{})
		if err != nil {
			t.Fatal(err)
		}
		// The launch stage fingerprints every wave, so an unbudgeted campaign
		// can die right here — that is the failure under test, not a setup
		// error.
		if _, err := c.Launch(); err != nil {
			return CampaignStats{}, err
		}
		if _, _, err := c.Verify(vic); err != nil {
			return CampaignStats{}, err
		}
		return c.Stats(), nil
	}

	if _, err := run(0); !errors.Is(err, sandbox.ErrProbeFault) {
		t.Fatalf("budget-0 campaign error = %v, want ErrProbeFault", err)
	}
	st, err := run(3)
	if err != nil {
		t.Fatalf("budget-3 verify died: %v", err)
	}
	if st.ProbeRetries == 0 {
		t.Error("rate-0.2 probe plane triggered no retries")
	}
	if st.VictimInstances == 0 {
		t.Error("verify scored no victims")
	}
}

// Hardening knobs engaged on a fault-free platform must not change a
// campaign's operation sequence: twin worlds, one campaign with every budget
// set and one without, produce identical results and identical bills.
func TestHardeningIsFreeWithoutFaults(t *testing.T) {
	run := func(hardened bool) (*CampaignResult, faas.Bill) {
		dc := smallWorld(t, 23)
		cfg := smallCfg()
		if hardened {
			cfg.LaunchRetries = 8
			cfg.RetryBackoff = 30 * time.Second
			cfg.ProbeRetryBudget = 3
		}
		acct := dc.Account("attacker")
		c, err := NewCampaign(acct, cfg, sandbox.Gen1, OptimizedStrategy{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Launch()
		if err != nil {
			t.Fatal(err)
		}
		if c.Stats().FaultRecovery() {
			t.Fatal("fault ledger nonzero on a clean platform")
		}
		return res, acct.Bill()
	}
	plain, plainBill := run(false)
	hard, hardBill := run(true)
	assertSameCampaign(t, plain, hard)
	if plainBill != hardBill {
		t.Errorf("bills diverge:\n  plain    %+v\n  hardened %+v", plainBill, hardBill)
	}
}
