package faas

import (
	"slices"

	"eaao/internal/randx"
	"eaao/internal/simtime"
)

// CloudRunPolicy is the calibrated reproduction of the placement behavior the
// paper reverse-engineered on Google Cloud Run (§5.1, Obs. 1–6): stable
// per-account base pools packed near-uniformly, per-service helper sets
// unlocked proportionally to the demand streak, and base-pool recycling for
// migrated instances. It is the default policy of every region profile.
type CloudRunPolicy struct {
	policyDefaults
}

// cloudRunState is CloudRunPolicy's per-service state: the ids of the
// preference-ordered helper hosts the service can expand onto. How many are
// unlocked is a pure function of the demand streak, recomputed per placement.
// It is immutable once built, so the world, its snapshots and every fork
// share one.
type cloudRunState struct {
	helpers []HostID
}

// Name returns "cloudrun".
func (CloudRunPolicy) Name() string { return "cloudrun" }

// NewService builds the service's helper set from the deployment-time
// preference stream.
func (CloudRunPolicy) NewService(svc *Service, rng *randx.Source) any {
	return &cloudRunState{helpers: buildHelperSet(svc, rng)}
}

// Place splits the batch between helper hosts (when demand has unlocked any)
// and the account's base hosts.
func (CloudRunPolicy) Place(req PlacementRequest, b *PlacementBatch) {
	s := req.Service
	p := s.account.dc.profile
	st := s.policyState.(*cloudRunState)

	// Helper hosts unlock proportionally to the streak, saturating after
	// HelperSaturationLaunches hot launches (Obs. 5). The unlocked count is
	// monotone within a streak and resets on cold, so recomputing it here is
	// equivalent to tracking a running maximum across launches.
	helperFrac := 0.0
	helperActive := 0
	if req.HotStreak > 0 {
		steps := req.HotStreak
		if steps > p.HelperSaturationLaunches {
			steps = p.HelperSaturationLaunches
		}
		helperFrac = 0.3 * float64(steps)
		if helperFrac > 0.85 {
			helperFrac = 0.85
		}
		helperActive = len(st.helpers) * steps / p.HelperSaturationLaunches
	}
	helperN := int(helperFrac * float64(req.Count))

	// Helper placement: thin spread across the entire unlocked helper
	// window — the load balancer's goal is relieving the base hosts, so it
	// spreads as wide as the window allows (at most HelperPerHostCap per
	// host). Anything the unlocked helpers cannot absorb spills to base.
	if helperN > 0 && helperActive > 0 {
		placed := min(helperN, helperActive*p.HelperPerHostCap)
		dc := s.account.dc
		active := dc.hostBuf[:0]
		for _, id := range st.helpers[:helperActive] {
			active = append(active, dc.hosts[id])
		}
		dc.hostBuf = active[:0]
		b.Spread(active, placed)
	}

	// Base placement: near-uniform packing (10–11 per host, Obs. 1) over a
	// preference-weighted selection from the account's base pool.
	baseN := req.Count - b.Placed()
	if baseN > 0 {
		hostCount := (baseN + p.BasePerHostCap - 1) / p.BasePerHostCap
		if hostCount > len(s.account.basePool) {
			hostCount = len(s.account.basePool)
		}
		hosts := rankedBaseSelection(req.RNG, s.account, s.account.basePool, hostCount)
		b.Spread(hosts, baseN)
	}
}

// Recycle re-places a migrated instance onto a noisy base-pool selection,
// keeping the tenant's footprint anchored to its base hosts.
func (CloudRunPolicy) Recycle(svc *Service, oldID string, now simtime.Time) *Host {
	return recycleBaseDraw(svc, oldID)
}

// OnDemandDecay resamples part of the base pool in dynamic regions
// (us-central1) whenever the service goes cold.
func (CloudRunPolicy) OnDemandDecay(svc *Service, now simtime.Time) {
	dynamicDecay(svc)
}

// buildHelperSet composes a service's helper hosts: mostly a draw from the
// account-level helper pool (so same-account services overlap heavily),
// plus a few fresh fleet-wide hosts interleaved throughout the expansion
// order (so each new service's footprint grows the cumulative one, Fig. 10).
func buildHelperSet(s *Service, rng *randx.Source) []HostID {
	a, dc := s.account, s.account.dc
	p := dc.profile
	helpers := dc.hostBuf[:0]
	for _, id := range a.helpers {
		helpers = append(helpers, dc.hosts[id])
	}
	dc.hostBuf = helpers[:0]
	fromAccount := a.noisyTopSample(rng, helpers, p.ServiceHelperSize, sigmaHelper, noExclusion)
	mark := dc.platform.nextMark()
	for _, id := range fromAccount {
		dc.hosts[id].mark = mark
	}
	for _, id := range a.basePool {
		dc.hosts[id].mark = mark // base hosts are not helpers
	}
	fresh := a.noisyTopSample(rng, dc.hosts, p.ServiceHelperFresh, sigmaFresh, mark)

	// Interleave fresh entries uniformly into the account-pool order, each
	// inserted at a position drawn against the set's current length. The set
	// holds no pointers, so each insert's shift is a short memmove.
	out := append(make([]HostID, 0, len(fromAccount)+len(fresh)), fromAccount...)
	for _, id := range fresh {
		out = slices.Insert(out, rng.Intn(len(out)+1), id)
	}
	return out
}

// rankNoise is the sigma of the per-launch rank perturbation in
// rankedBaseSelection; its continuous distribution makes exact score ties
// have probability zero, so ordering by score alone is a total order in
// practice and quickselect reproduces the historical full sort exactly.
const rankNoise = 3.0

// rankedBaseSelection picks hostCount hosts from the preference-ordered base
// pool by noisy rank: the front of the pool is used on virtually every
// launch (so a tenant's repeated launches reuse the same hosts — the
// stability the re-attack optimization banks on), while rank noise lets
// repeated cold launches slowly explore the pool tail (Fig. 7's slight
// cumulative growth).
//
// The returned slice is backed by region-level scratch: valid until the
// region's next selection, which is fine for its one consumer (an immediate
// PlacementBatch.Spread).
func rankedBaseSelection(rng *randx.Source, a *Account, pool []HostID, hostCount int) []*Host {
	dc := a.dc
	out := dc.hostBuf[:0]
	if hostCount >= len(pool) {
		for _, id := range pool {
			out = append(out, dc.hosts[id])
		}
	} else {
		cand := dc.scoreBuf[:0]
		for i, id := range pool {
			cand = append(cand, hostScore{id: id, score: float64(i) + rng.Normal(0, rankNoise)})
		}
		dc.scoreBuf = cand[:0]
		topK(cand, hostCount, byScore{})
		for _, c := range cand[:hostCount] {
			out = append(out, dc.hosts[c.id])
		}
	}
	dc.hostBuf = out[:0]
	return out
}

// recycleBaseDraw is the platform's historical replacement-host draw: a
// noisy base-pool selection seeded by the recycled instance's identity. Only
// one host of the ranked selection is ever used, so instead of materializing
// the whole top-hostCount prefix it draws the rank first and quickselects
// exactly that element — same derived-RNG scoring draws, same service-stream
// Intn draw, same host, O(P) instead of O(P log P).
func recycleBaseDraw(svc *Service, oldID string) *Host {
	a := svc.account
	pool := a.basePool
	hostCount := 1 + len(pool)/8
	if hostCount >= len(pool) {
		// Historical behavior: the ranked selection degenerates to a copy
		// of the whole pool (no scoring draws), then a uniform pick.
		return a.dc.hosts[pool[svc.rng.Intn(len(pool))]]
	}
	rng := svc.rng.DeriveInto(&a.dc.deriveScratch, "recycle", oldID)
	cand := a.dc.scoreBuf[:0]
	for i, id := range pool {
		cand = append(cand, hostScore{id: id, score: float64(i) + rng.Normal(0, rankNoise)})
	}
	a.dc.scoreBuf = cand[:0]
	k := svc.rng.Intn(hostCount)
	return a.dc.hosts[selectRank(cand, k, byScore{})]
}
