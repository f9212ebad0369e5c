package faas

import (
	"fmt"
	"sort"

	"eaao/internal/randx"
	"eaao/internal/simtime"
)

// PlacementPolicy is the pluggable placement engine of a data center. The
// platform mechanism (fleet state, instance lifecycle, autoscaler, quotas,
// billing) is policy-agnostic: every decision about *where* an instance
// lands — and every reaction to demand decay, recycling, and idle
// termination — goes through this interface.
//
// Implementations must be deterministic: all randomness must come from the
// randx sources handed to them (the service's placement stream and derived
// sub-streams), never from global state. Policies run on the single
// simulator thread and may freely read fleet state (hosts, resident counts,
// account pools); they must not mutate anything except through the
// PlacementBatch handle and the account-pool helpers.
type PlacementPolicy interface {
	// Name identifies the policy in traces, experiment output, and the
	// CLI's -policy flag.
	Name() string

	// NewService is called once when a service is deployed and returns the
	// policy's opaque per-service state (nil when the policy keeps none).
	// rng is the service's dedicated placement-preference sub-stream; it is
	// deployment-time scratch, valid only for the duration of the call —
	// policies must not retain it in their state.
	NewService(svc *Service, rng *randx.Source) any

	// Place assigns hosts to req.Count new instances by spawning them
	// through the batch handle. Placement decisions and instance
	// materialization interleave deliberately: startup-latency draws come
	// from the same per-service stream as placement noise, so batching all
	// decisions up front would reorder the stream and change the world.
	Place(req PlacementRequest, b *PlacementBatch)

	// Recycle picks the replacement host when the platform migrates a
	// long-running instance (a lifecycle-kernel churn event). oldID is the
	// recycled instance's identity, usable as a derivation label.
	Recycle(svc *Service, oldID string, now simtime.Time) *Host

	// OnDemandDecay fires when a launch arrives outside the demand window:
	// the service has gone cold and its hot streak resets. Policies with
	// dynamic pool behavior (us-central1) reshuffle here.
	OnDemandDecay(svc *Service, now simtime.Time)

	// OnIdleTermination fires when the idle reaper terminates an instance,
	// for policies that track per-host load externally instead of reading
	// live resident counts.
	OnIdleTermination(inst *Instance, now simtime.Time)
}

// PlacementRequest carries the context of one batch-placement decision: the
// account/service being scaled out, the demand-window state, and the
// deterministic per-service stream all placement noise must come from.
type PlacementRequest struct {
	// Service is the service being scaled out (account and region are
	// reachable through it).
	Service *Service
	// Count is the number of new instances to place.
	Count int
	// Now is the virtual time of the launch.
	Now simtime.Time
	// HotStreak is the number of consecutive launches that arrived inside
	// the demand window (0 on a cold launch) — the load-balancer signal
	// behind helper-host unlocking (Obs. 5).
	HotStreak int
	// RNG is the service's placement stream. Draws from it interleave with
	// the startup-latency draws of spawned instances, which is what makes
	// the whole world a pure function of the root seed.
	RNG *randx.Source
}

// PlacementBatch is the narrow mechanism handle a policy materializes its
// decisions through. It creates instances, keeps them in placement order,
// and records the decision for the (optional) placement trace.
type PlacementBatch struct {
	svc *Service
	now simtime.Time
	out []*Instance
}

// Spawn creates one new instance on the chosen host and returns it.
func (b *PlacementBatch) Spawn(h *Host) *Instance {
	inst := b.svc.createInstance(h, b.now)
	b.out = append(b.out, inst)
	return inst
}

// Spread spawns count instances round-robin across hosts (the orchestrator's
// near-uniform packing, Obs. 1). It panics if hosts is empty and count > 0 —
// a policy bug, not a recoverable condition.
func (b *PlacementBatch) Spread(hosts []*Host, count int) {
	for i := 0; i < count; i++ {
		b.Spawn(hosts[i%len(hosts)])
	}
}

// Placed returns how many instances the batch has spawned so far.
func (b *PlacementBatch) Placed() int { return len(b.out) }

// policyDefaults provides no-op lifecycle callbacks for policies that do
// not need them; embed it and override selectively.
type policyDefaults struct{}

func (policyDefaults) NewService(*Service, *randx.Source) any    { return nil }
func (policyDefaults) OnDemandDecay(*Service, simtime.Time)      {}
func (policyDefaults) OnIdleTermination(*Instance, simtime.Time) {}

// dynamicDecay is the demand-decay behavior shared by the policies that
// honor the DynamicPlacement profile knob (us-central1): part of the
// account's base pool is resampled on every cold launch.
func dynamicDecay(svc *Service) {
	p := svc.account.dc.profile
	if p.DynamicPlacement {
		svc.account.resampleBasePool(p.DynamicResampleFrac)
	}
}

// policyFor resolves a profile's placement engine: an explicit Policy wins,
// and the default is the calibrated Cloud Run extraction.
func policyFor(p RegionProfile) PlacementPolicy {
	if p.Policy != nil {
		return p.Policy
	}
	return CloudRunPolicy{}
}

// Policies returns one instance of every built-in placement policy, in
// presentation order.
func Policies() []PlacementPolicy {
	return []PlacementPolicy{CloudRunPolicy{}, RandomUniformPolicy{}, LeastLoadedPolicy{}}
}

// PolicyByName resolves a built-in policy from its Name (plus the short
// aliases "random" and "leastloaded").
func PolicyByName(name string) (PlacementPolicy, error) {
	switch name {
	case "random":
		return RandomUniformPolicy{}, nil
	case "leastloaded":
		return LeastLoadedPolicy{}, nil
	}
	for _, p := range Policies() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("faas: unknown placement policy %q (have cloudrun, random-uniform, least-loaded)", name)
}

// hostsByLoad returns the fleet ordered by resident-instance count, ties
// broken by host id so the order is deterministic.
func hostsByLoad(hosts []*Host) []*Host {
	out := append([]*Host(nil), hosts...)
	sort.Slice(out, func(i, j int) bool {
		if li, lj := len(out[i].instances), len(out[j].instances); li != lj {
			return li < lj
		}
		return out[i].id < out[j].id
	})
	return out
}
