package faas

import "eaao/internal/simtime"

// RandomUniformPolicy is the co-location-resistant scheduling defense §6
// cites [6, 37]: the orchestrator ignores base-host affinity and helper
// preferences and scatters every launch uniformly across the fleet. It
// removes the placement structure the attack exploits — at the price of
// image locality (every launch lands mostly on hosts that have never run
// the service, i.e. cold starts).
type RandomUniformPolicy struct {
	policyDefaults
}

// Name returns "random-uniform".
func (RandomUniformPolicy) Name() string { return "random-uniform" }

// Place scatters the batch over a uniform fleet-wide host sample sized for
// the usual per-host packing density.
func (RandomUniformPolicy) Place(req PlacementRequest, b *PlacementBatch) {
	s := req.Service
	p := s.account.dc.profile
	hostCount := (req.Count + p.BasePerHostCap - 1) / p.BasePerHostCap
	if hostCount > len(s.account.dc.hosts) {
		hostCount = len(s.account.dc.hosts)
	}
	idx := req.RNG.Sample(len(s.account.dc.hosts), hostCount)
	hosts := make([]*Host, hostCount)
	for i, j := range idx {
		hosts[i] = s.account.dc.hosts[j]
	}
	b.Spread(hosts, req.Count)
}

// Recycle keeps the historical base-pool replacement draw: the deployed
// defense only randomized launch placement, not churn migration.
func (RandomUniformPolicy) Recycle(svc *Service, oldID string, now simtime.Time) *Host {
	return recycleBaseDraw(svc, oldID)
}

// OnDemandDecay keeps the dynamic-region base-pool resample. The pool no
// longer steers placement under this policy, but it still feeds the recycle
// draw — and the historical defense left the bookkeeping running.
func (RandomUniformPolicy) OnDemandDecay(svc *Service, now simtime.Time) {
	dynamicDecay(svc)
}
