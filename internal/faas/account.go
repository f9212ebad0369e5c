package faas

import (
	"eaao/internal/randx"
	"eaao/internal/sandbox"
	"eaao/internal/simtime"
)

// Placement-preference selection noise. Pools are "noisy top-K" selections
// by host desirability: every scheduler decision ranks hosts by desirability
// plus Gaussian noise and takes the best K. Base pools rank sharply (small
// noise); helper pools rank more loosely. The shared preference axis is what
// makes an attacker's helper footprint cover a victim's base hosts far
// better than uniform coverage would suggest — the paper's attacker occupied
// 59% of us-east1 hosts yet covered ~98-100% of victim instances.
const (
	sigmaBase   = 0.05
	sigmaHelper = 0.10
	// sigmaFresh is nearly rank-blind: the few fleet-wide "fresh" helper
	// hosts each service gets are how exploration reaches the colder part
	// of the fleet (Fig. 12's estimates approach the true size).
	sigmaFresh = 0.60
)

// Account is one tenant identity within a data center. The orchestrator
// assigns each account a stable base-host pool (Obs. 3/4) derived
// deterministically from the account identity.
type Account struct {
	dc *DataCenter
	id string
	// seed derives the account's pool draws and its services' streams; the
	// account itself never draws.
	seed uint64

	group int
	// basePool and helpers (the account-level helper pool) are host ids,
	// preference-ordered. The world, its snapshots and forks share them, so
	// they are copy-on-write: resampleBasePool builds a new slice.
	basePool []HostID
	helpers  []HostID

	services map[string]*Service
	svcSeq   []*Service // creation order, for deterministic iteration

	// quota caps instances per service for this account (new-account
	// limit); 0 means the region-wide maximum applies.
	quota int

	bill Bill
}

func newAccount(dc *DataCenter, id string) *Account {
	seed := randx.DeriveSeed(dc.seed, "account", id)
	a := &Account{
		dc:       dc,
		id:       id,
		seed:     seed,
		group:    int(dc.deriveScratch.Reseed(randx.DeriveSeed(seed, "group")).Uint64() % uint64(dc.profile.PlacementGroups)),
		services: make(map[string]*Service),
	}
	a.basePool = a.sampleBasePool(dc.deriveScratch.Reseed(randx.DeriveSeed(seed, "base")))
	a.helpers = a.noisyTopSample(dc.deriveScratch.Reseed(randx.DeriveSeed(seed, "helpers")), dc.hosts, dc.profile.AccountHelperPool, sigmaHelper, noExclusion)
	a.quota = dc.profile.NewAccountQuota
	return a
}

// Quota returns the account's per-service instance cap (the region maximum
// when the account is mature).
func (a *Account) Quota() int {
	if a.quota > 0 && a.quota < a.dc.profile.MaxInstancesPerService {
		return a.quota
	}
	return a.dc.profile.MaxInstancesPerService
}

// Mature lifts the new-account quota to the region maximum, modeling an
// account that has sustained consistent usage for months (§5.2: attackers
// wanting many accounts must pay this time cost per account).
func (a *Account) Mature() { a.quota = 0 }

// sampleBasePool draws the account's base pool from its placement group,
// ranked by host desirability. Host i is in placement group
// i mod PlacementGroups, so a group's hosts, in id order, are every
// PlacementGroups-th host from the group's own number on.
func (a *Account) sampleBasePool(rng *randx.Source) []HostID {
	group := a.dc.hostBuf[:0]
	for i := a.group; i < len(a.dc.hosts); i += a.dc.profile.PlacementGroups {
		group = append(group, a.dc.hosts[i])
	}
	a.dc.hostBuf = group[:0]
	return a.noisyTopSample(rng, group, a.dc.profile.BasePoolSize, sigmaBase, noExclusion)
}

// noExclusion asks noisyTopSample to consider every candidate. Any other
// value must be a live epoch tag from Platform.nextMark; hosts carrying it
// are skipped before any noise is drawn (exactly as the old map-based
// exclusion skipped them), so the RNG draw sequence is unchanged.
const noExclusion uint64 = 0

// noisyTopSample selects the k best candidates by desirability plus Gaussian
// selection noise, and returns their ids ordered best-first, i.e. stronger
// preference first. Scoring scratch is reused across calls; selection is a
// deterministic quickselect over the strict (score, host-id) total order, so
// the output matches the historical full sort element for element.
func (a *Account) noisyTopSample(rng *randx.Source, candidates []*Host, k int, sigma float64, excludeMark uint64) []HostID {
	pool := a.dc.scoreBuf[:0]
	for _, h := range candidates {
		if excludeMark != noExclusion && h.mark == excludeMark {
			continue
		}
		pool = append(pool, hostScore{id: h.id, score: h.desirability + rng.Normal(0, sigma)})
	}
	a.dc.scoreBuf = pool[:0]
	if k > len(pool) {
		k = len(pool)
	}
	topK(pool, k, byScoreThenID{})
	out := make([]HostID, k)
	for i := range out {
		out[i] = pool[i].id
	}
	return out
}

// resampleBasePool replaces frac of the base pool with fresh draws; used by
// dynamic regions (us-central1) on cold launches. Unlike the static
// group-confined assignment, dynamic replacements come from the whole fleet
// with loose rank preference — the paper observed that in us-central1 "many
// instances are placed onto different hosts across launches, even if we
// launch from a cold service", which is what keeps any fixed attacker
// footprint from ever fully covering a victim there.
func (a *Account) resampleBasePool(frac float64) {
	n := int(frac * float64(len(a.basePool)))
	if n <= 0 {
		return
	}
	mark := a.dc.platform.nextMark()
	for _, id := range a.basePool {
		a.dc.hosts[id].mark = mark
	}
	// Loose preference: spread well beyond the fleet's most desirable tier.
	const sigmaDynamic = 1.0
	fresh := a.noisyTopSample(a.dc.deriveScratch.Reseed(randx.DeriveSeed(a.seed, "resample")), a.dc.hosts, n, sigmaDynamic, mark)
	// Replace entries at random positions — including the high-preference
	// head. This is what makes us-central1 placement "more dynamic": a
	// tenant's instances keep landing on partially new hosts, which in turn
	// caps how well any attacker footprint can cover them (the paper's
	// 61-90% coverage band there, vs ~100% elsewhere). Copy-on-write: the
	// old pool may be shared with snapshots and forks.
	perm := a.dc.deriveScratch.Reseed(randx.DeriveSeed(a.seed, "resample-pos")).Perm(len(a.basePool))
	pool := append([]HostID(nil), a.basePool...)
	for i, id := range fresh {
		pool[perm[i]] = id
	}
	a.basePool = pool
}

// ID returns the account identity.
func (a *Account) ID() string { return a.id }

// DataCenter returns the account's region.
func (a *Account) DataCenter() *DataCenter { return a.dc }

// ServiceConfig configures a deployed service.
type ServiceConfig struct {
	// Size is the container resource specification; zero value means
	// SizeSmall (the Cloud Run default).
	Size InstanceSize
	// Gen selects the execution environment; zero value means Gen 1 (the
	// Cloud Run default).
	Gen sandbox.Gen
	// MaxConcurrency is the per-instance request concurrency used by the
	// request-driven autoscaler; zero means the Cloud Run default (80).
	// The paper's measurement services effectively use 1 (one pinned
	// connection per instance), which the Launch API models directly.
	MaxConcurrency int
}

// DeployService creates (or returns the existing) service with the given
// name. Deploying an existing name with a different configuration replaces
// the configuration for future instances, like pushing a new revision.
func (a *Account) DeployService(name string, cfg ServiceConfig) *Service {
	if cfg.Size == (InstanceSize{}) {
		cfg.Size = SizeSmall
	}
	if cfg.Gen == 0 {
		cfg.Gen = sandbox.Gen1
	}
	if svc, ok := a.services[name]; ok {
		svc.size = cfg.Size
		svc.gen = cfg.Gen
		svc.maxConcurrency = cfg.MaxConcurrency
		return svc
	}
	svc := newService(a, name, cfg)
	a.services[name] = svc
	a.svcSeq = append(a.svcSeq, svc)
	return svc
}

// Bill is the account's accumulated resource usage. Cloud Run bills active
// (connected) time only; idle instances accrue nothing.
type Bill struct {
	VCPUSeconds float64
	GBSeconds   float64
	Launches    int
	Instances   int
}

// accrue charges one instance's active span to the account.
func (a *Account) accrue(inst *Instance, from, to simtime.Time) {
	secs := to.Sub(from).Seconds()
	if secs <= 0 {
		return
	}
	a.bill.VCPUSeconds += secs * inst.service.size.VCPU
	a.bill.GBSeconds += secs * inst.service.size.MemoryGB
}

// Bill returns a copy of the account's usage counters.
func (a *Account) Bill() Bill { return a.bill }

// ResetBill zeroes the usage counters (used between experiment phases).
func (a *Account) ResetBill() { a.bill = Bill{} }
