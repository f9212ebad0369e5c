// Package faas simulates a Cloud-Run-like Function-as-a-Service platform:
// physical hosts with TSC physics, accounts, services, container instances,
// and an orchestrator whose placement policy reproduces the behaviours the
// paper reverse-engineered on Google Cloud Run (§5.1, Observations 1–6):
//
//  1. Instances of one service share hosts, spread close to uniformly.
//  2. Idle instances are terminated gradually over ~12 minutes.
//  3. Each account has a preferred set of "base hosts", stable across
//     launches and shared by all of the account's services and sizes.
//  4. Different accounts get different base hosts.
//  5. A service with high demand inside a ~30-minute window spills new
//     instances onto extra "helper hosts" (load balancing), saturating after
//     a few launches.
//  6. Helper-host sets are per-service, different but overlapping.
//
// The attacker-facing surface is identical to the real platform's: deploy
// services, open connections to scale instances out, run guest code inside
// each instance's sandbox, and observe lifecycle signals (SIGTERM). All
// placement internals are private to the simulator; attack code must infer
// them exactly as the paper does.
package faas

import (
	"fmt"
	"time"

	"eaao/internal/sandbox"
)

// Region names a simulated data center.
type Region string

// The three Cloud Run data centers studied in the paper.
const (
	USEast1    Region = "us-east1"
	USCentral1 Region = "us-central1"
	USWest1    Region = "us-west1"
)

// RegionProfile parameterizes one data center's fleet and orchestrator
// personality. The defaults below are calibrated so that the paper's
// experiments reproduce their published shapes (see DESIGN.md §3 and
// EXPERIMENTS.md).
type RegionProfile struct {
	// Name is the region identifier.
	Name Region

	// NumHosts is the true number of physical hosts. The paper only ever
	// observes a lower bound (e.g. "at least 1702 hosts" in us-central1);
	// the simulator knows the truth so experiments can report both.
	NumHosts int

	// PlacementGroups partitions the fleet for base-host assignment: an
	// account's base hosts are drawn from the group its identity hashes to.
	// Small regions have few groups, so two accounts sometimes collide —
	// which is exactly the "base hosts happen to be highly overlapped"
	// situation that made the naive strategy accidentally succeed in
	// us-west1 (§5.2).
	PlacementGroups int

	// BasePoolSize is the number of hosts in one account's base pool.
	BasePoolSize int

	// BasePerHostCap is the target number of instances of one service
	// packed per base host (the paper observed 10–11 per host for 800
	// instances on 75 hosts).
	BasePerHostCap int

	// HelperPerHostCap is the thinner packing used on helper hosts: the
	// load balancer's goal is relieving pressure, so it spreads wide.
	HelperPerHostCap int

	// AccountHelperPool is the size of the account-level helper pool from
	// which each service's helper set is mostly drawn. Same-account
	// services therefore share most helper hosts (the paper's six-service
	// attacker covered only modestly more hosts than one service).
	AccountHelperPool int

	// ServiceHelperSize is how many helper hosts a single service can
	// saturate (its helper set size). Must not exceed AccountHelperPool.
	ServiceHelperSize int

	// ServiceHelperFresh is how many helper hosts a service draws from the
	// whole fleet rather than the account pool; this produces the gradual
	// cumulative-footprint growth across episodes in Fig. 10.
	ServiceHelperFresh int

	// HelperSaturationLaunches is the number of consecutive hot launches
	// after which the helper set stops expanding (Obs. 5: "after a certain
	// number of repeated launches, this behavior saturates").
	HelperSaturationLaunches int

	// DemandWindow is the look-back window of the load balancer; launches
	// spaced further apart than this never trigger helper placement.
	DemandWindow time.Duration

	// IdleGrace is how long idle instances are always preserved.
	IdleGrace time.Duration

	// IdleTerminationSpan is the span after IdleGrace over which idle
	// instances are gradually terminated (all gone by grace+span).
	IdleTerminationSpan time.Duration

	// DynamicPlacement marks regions (us-central1) where the orchestrator
	// reshuffles part of an account's base pool on every cold launch.
	DynamicPlacement bool

	// DynamicResampleFrac is the fraction of the base pool resampled per
	// cold launch when DynamicPlacement is set.
	DynamicResampleFrac float64

	// ProblematicHostFrac is the fraction of hosts whose timekeeping is
	// disturbed enough to break measured-frequency estimation (§4.2
	// method 2; the paper saw 58/586 ≈ 10%).
	ProblematicHostFrac float64

	// MaintenanceBatchFrac is the fraction of hosts that were rebooted in
	// clustered maintenance windows, giving several hosts near-identical
	// boot times (the source of false positives at coarse p_boot, Fig. 4).
	MaintenanceBatchFrac float64

	// MaxBootAge bounds how long ago hosts booted; uptimes are spread over
	// (0, MaxBootAge].
	MaxBootAge time.Duration

	// InstanceChurnPerHour is the probability per hour that a connected
	// instance is recycled onto a (possibly) different host; this breaks
	// long fingerprint histories as observed in the week-long Fig. 5 run.
	InstanceChurnPerHour float64

	// MaxInstancesPerService is the platform quota (Cloud Run: 1000).
	MaxInstancesPerService int

	// NewAccountQuota caps instances per service for newly created accounts
	// until they mature (cloud providers limit fresh accounts; the paper
	// notes this as the main obstacle to multi-account attacks, §5.2).
	NewAccountQuota int

	// Mitigations enables the §6 TSC-masking defenses fleet-wide.
	Mitigations sandbox.Mitigations

	// Policy selects the region's placement engine. nil means the default,
	// CloudRunPolicy.
	Policy PlacementPolicy

	// Faults configures the region's injected-failure plane (launch
	// rejections, preemption, covert-channel misfires, probe failures). The
	// zero value disables every fault and leaves the simulation
	// byte-identical to a fault-free build; see FaultPlan.
	Faults FaultPlan

	// Traffic configures the region's background-tenant workload: a
	// population of bystander accounts whose autoscaled demand keeps the
	// fleet realistically occupied while experiments run (see TrafficModel).
	// The zero value disables the layer and leaves the simulation
	// byte-identical to a build without it.
	Traffic TrafficModel
}

// Validate checks the profile for internal consistency.
func (p RegionProfile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("faas: profile has no region name")
	case p.NumHosts <= 0:
		return fmt.Errorf("faas: %s: NumHosts must be positive", p.Name)
	case p.PlacementGroups <= 0 || p.PlacementGroups > p.NumHosts:
		return fmt.Errorf("faas: %s: PlacementGroups out of range", p.Name)
	case p.BasePoolSize <= 0 || p.BasePoolSize > p.NumHosts/p.PlacementGroups:
		return fmt.Errorf("faas: %s: BasePoolSize %d exceeds group size %d",
			p.Name, p.BasePoolSize, p.NumHosts/p.PlacementGroups)
	case p.BasePerHostCap <= 0 || p.HelperPerHostCap <= 0:
		return fmt.Errorf("faas: %s: per-host caps must be positive", p.Name)
	case p.AccountHelperPool <= 0 || p.AccountHelperPool > p.NumHosts:
		return fmt.Errorf("faas: %s: AccountHelperPool out of range", p.Name)
	case p.ServiceHelperSize <= 0 || p.ServiceHelperSize > p.AccountHelperPool:
		return fmt.Errorf("faas: %s: ServiceHelperSize exceeds account pool", p.Name)
	case p.ServiceHelperFresh < 0:
		return fmt.Errorf("faas: %s: ServiceHelperFresh negative", p.Name)
	case p.HelperSaturationLaunches <= 0:
		return fmt.Errorf("faas: %s: HelperSaturationLaunches must be positive", p.Name)
	case p.DemandWindow <= 0 || p.IdleGrace < 0 || p.IdleTerminationSpan <= 0:
		return fmt.Errorf("faas: %s: invalid timing parameters", p.Name)
	case p.DynamicResampleFrac < 0 || p.DynamicResampleFrac > 1:
		return fmt.Errorf("faas: %s: DynamicResampleFrac out of [0,1]", p.Name)
	case p.ProblematicHostFrac < 0 || p.ProblematicHostFrac > 1:
		return fmt.Errorf("faas: %s: ProblematicHostFrac out of [0,1]", p.Name)
	case p.MaintenanceBatchFrac < 0 || p.MaintenanceBatchFrac > 1:
		return fmt.Errorf("faas: %s: MaintenanceBatchFrac out of [0,1]", p.Name)
	case p.MaxBootAge <= 0:
		return fmt.Errorf("faas: %s: MaxBootAge must be positive", p.Name)
	case p.InstanceChurnPerHour < 0 || p.InstanceChurnPerHour > 1:
		return fmt.Errorf("faas: %s: InstanceChurnPerHour out of [0,1]", p.Name)
	case p.MaxInstancesPerService <= 0:
		return fmt.Errorf("faas: %s: MaxInstancesPerService must be positive", p.Name)
	}
	if err := p.Faults.Validate(); err != nil {
		return err
	}
	if err := p.Traffic.Validate(); err != nil {
		return fmt.Errorf("faas: %s: %w", p.Name, err)
	}
	return nil
}

// baseProfile holds the parameters shared by all three default regions.
func baseProfile() RegionProfile {
	return RegionProfile{
		BasePerHostCap:           11,
		HelperPerHostCap:         3,
		HelperSaturationLaunches: 3,
		DemandWindow:             30 * time.Minute,
		IdleGrace:                115 * time.Second,
		IdleTerminationSpan:      10 * time.Minute,
		ProblematicHostFrac:      0.10,
		MaintenanceBatchFrac:     0.30,
		MaxBootAge:               45 * 24 * time.Hour,
		InstanceChurnPerHour:     0.02,
		MaxInstancesPerService:   1000,
	}
}

// USEast1Profile returns the default us-east1 personality: a mid-sized fleet
// (the paper found 474 apparent hosts) with stable placement.
func USEast1Profile() RegionProfile {
	p := baseProfile()
	p.Name = USEast1
	p.NumHosts = 500
	p.PlacementGroups = 5
	p.BasePoolSize = 96
	p.AccountHelperPool = 260
	p.ServiceHelperSize = 190
	p.ServiceHelperFresh = 15
	return p
}

// USCentral1Profile returns the default us-central1 personality: the largest
// fleet (paper: at least 1702 hosts) with dynamic placement.
func USCentral1Profile() RegionProfile {
	p := baseProfile()
	p.Name = USCentral1
	p.NumHosts = 1800
	p.PlacementGroups = 15
	p.BasePoolSize = 110
	p.AccountHelperPool = 750
	p.ServiceHelperSize = 420
	p.ServiceHelperFresh = 70
	p.DynamicPlacement = true
	p.DynamicResampleFrac = 0.5
	return p
}

// USWest1Profile returns the default us-west1 personality: a small fleet
// (paper: 199 apparent hosts) where base pools of different accounts often
// collide.
func USWest1Profile() RegionProfile {
	p := baseProfile()
	p.Name = USWest1
	p.NumHosts = 205
	p.PlacementGroups = 2
	p.BasePoolSize = 92
	p.AccountHelperPool = 130
	p.ServiceHelperSize = 105
	p.ServiceHelperFresh = 10
	return p
}

// DefaultProfiles returns the three studied data centers.
func DefaultProfiles() []RegionProfile {
	return []RegionProfile{USEast1Profile(), USCentral1Profile(), USWest1Profile()}
}
