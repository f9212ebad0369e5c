package faas

import (
	"fmt"
	"strconv"
	"strings"

	"eaao/internal/randx"
	"eaao/internal/simtime"
)

// Platform is the top-level simulated cloud: a shared virtual clock plus one
// or more data centers. All mutation happens on the single simulator thread;
// Platform is not safe for concurrent use (by design, for determinism).
type Platform struct {
	sched *simtime.Scheduler
	// seed is the world seed. Regions derive their seeds from it; nothing
	// draws from the platform itself, so it holds a seed, not a stream.
	seed    uint64
	regions map[Region]*DataCenter
	order   []Region

	// markSeq mints host-epoch tags (see Host.mark). Not an RNG stream and
	// never observable in simulation output; it only has to be unique per
	// operation within this platform.
	markSeq uint64
}

// nextMark returns a fresh host-epoch tag, distinct from every mark
// previously written to this platform's hosts.
func (p *Platform) nextMark() uint64 {
	p.markSeq++
	return p.markSeq
}

// NewPlatform builds a platform with the given root seed and region profiles.
// The same seed and profiles always produce an identical virtual world.
func NewPlatform(seed uint64, profiles ...RegionProfile) (*Platform, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("faas: platform needs at least one region profile")
	}
	p := &Platform{
		sched:   simtime.NewScheduler(0),
		seed:    seed,
		regions: make(map[Region]*DataCenter, len(profiles)),
	}
	for _, prof := range profiles {
		if err := prof.Validate(); err != nil {
			return nil, err
		}
		if _, dup := p.regions[prof.Name]; dup {
			return nil, fmt.Errorf("faas: duplicate region %s", prof.Name)
		}
		dc := newDataCenter(p, prof)
		p.regions[prof.Name] = dc
		p.order = append(p.order, prof.Name)
	}
	return p, nil
}

// MustPlatform is NewPlatform, panicking on error; for tests and examples
// with static, known-good configurations.
func MustPlatform(seed uint64, profiles ...RegionProfile) *Platform {
	p, err := NewPlatform(seed, profiles...)
	if err != nil {
		panic(err)
	}
	return p
}

// Scheduler returns the platform's virtual clock. Callers advance time
// through it (e.g. to wait out launch intervals).
func (p *Platform) Scheduler() *simtime.Scheduler { return p.sched }

// Now returns the current virtual time.
func (p *Platform) Now() simtime.Time { return p.sched.Now() }

// Region returns the data center with the given name.
func (p *Platform) Region(r Region) (*DataCenter, error) {
	dc, ok := p.regions[r]
	if !ok {
		return nil, fmt.Errorf("faas: unknown region %s", r)
	}
	return dc, nil
}

// MustRegion is Region, panicking on an unknown name.
func (p *Platform) MustRegion(r Region) *DataCenter {
	dc, err := p.Region(r)
	if err != nil {
		panic(err)
	}
	return dc
}

// Regions lists the configured regions in creation order.
func (p *Platform) Regions() []Region { return append([]Region(nil), p.order...) }

// Seed returns the world seed the platform was built from. Observers use it
// to derive their own randomness streams (via randx.Derive labels disjoint
// from the platform's) without touching platform state.
func (p *Platform) Seed() uint64 { return p.seed }

// DataCenter is one simulated region.
type DataCenter struct {
	platform *Platform
	profile  RegionProfile
	// seed derives every stream of the region (hosts, accounts, boots,
	// faults, traffic, lifecycle); the region itself never draws.
	seed  uint64
	hosts []*Host
	// bootTimes holds every host's boot instant, sampled eagerly at
	// construction: boots come from one shared sequential stream (maintenance
	// batches correlate hosts), so they cannot be deferred per host without
	// changing draw order. They are cheap — everything else about a host
	// materializes lazily (see Host).
	bootTimes []simtime.Time
	// liveHosts counts materialized hosts (scale instrumentation).
	liveHosts int
	accounts  map[string]*Account
	acctSeq   []*Account // creation order, for deterministic iteration
	nextInst  int

	// instSlab bump-allocates Instance structs in chunks (allocInstance):
	// one heap allocation per instSlabSize creations. Slots are never reused
	// — experiment code may hold pointers to terminated instances — so every
	// *Instance stays valid forever.
	instSlab []Instance

	// Selection scratch shared by every noisy top-K decision in the region
	// (pool sampling, helper builds, ranked base selection). Region-level
	// rather than per-account: an account only samples a handful of times,
	// so per-account scratch never amortized — at fleet scale the scratch
	// itself was the dominant selection allocation. Safe because the
	// simulator is single-threaded and no selection nests inside another.
	scoreBuf []hostScore
	hostBuf  []*Host

	// matScratch and deriveScratch are reseed-in-place Sources for derived
	// streams that are drained and discarded within one call (host
	// materialization draws, account/service pool sampling, recycle draws).
	// Two separate scratches because materialization can trigger inside a
	// placement that is still consuming deriveScratch. Each is dead outside
	// the call that reseeds it.
	matScratch    randx.Source
	deriveScratch randx.Source
	// noiseSlab bump-allocates hosts' noise streams in chunks of 1, 3, 7, …
	// up to 32 (noiseChunk): a fork that materializes few hosts pays little.
	noiseSlab  []randx.Source
	noiseChunk int

	// Per-instance lifecycle kernel: churnHazard and preemptHazard are
	// the exponential rates per hour matching the profile's per-hour
	// probabilities, and lifeSeed addresses the stateless per-instance draw
	// streams (randx.Mix3(lifeSeed, instance seq, draw#)); lifeMix1 is the
	// precomputed first mixer round of that hash (randx.MixInit(lifeSeed)).
	churnHazard   float64
	preemptHazard float64
	lifeSeed      uint64
	lifeMix1      uint64
	// lifeSlab/lifeFree pool the kernel's per-instance timer slots (see
	// allocLifeEvent): slabs amortize allocation, the free list recycles
	// slots of terminated instances. cohorts are the pending nursery
	// cohorts, oldest first (one boundary event per creation instant, so
	// they fire in this order); the newest collects the instances created
	// at nurseryAt. cohortFree recycles fired cohorts.
	lifeSlab   []simtime.Event
	lifeFree   []*simtime.Event
	cohorts    []*lifeCohort
	nurseryAt  simtime.Time
	cohortFree []*lifeCohort

	// policy is the region's placement engine, resolved once from the
	// profile at construction; all placement decisions flow through it.
	policy PlacementPolicy
	// tracer, when installed, receives every placement decision; traceSeq
	// numbers the events.
	tracer   PlacementTracer
	traceSeq uint64

	// faults is the region's injected-failure plan; the dedicated fault
	// streams below are derived unconditionally (derivation consumes no
	// parent randomness) but drawn from only while the matching rate is
	// positive, which is what keeps a zero plan byte-identical.
	faults          FaultPlan
	launchFaultRNG  *randx.Source
	channelFaultRNG *randx.Source
	probeFaultRNG   *randx.Source
	faultCounters   FaultCounters

	// traffic is the region's background-tenant engine (nil when the
	// profile's TrafficModel is disabled); liveInstances counts live
	// (active + idle resident) instances region-wide — the numerator of the
	// Utilization observable the congestion plane and experiments read.
	traffic       *trafficState
	liveInstances int
}

func newDataCenter(p *Platform, prof RegionProfile) *DataCenter {
	dc := &DataCenter{
		platform: p,
		profile:  prof,
		seed:     randx.DeriveSeed(p.seed, "dc", string(prof.Name)),
		accounts: make(map[string]*Account),
		policy:   policyFor(prof),
		faults:   prof.Faults,
	}
	dc.launchFaultRNG = randx.New(randx.DeriveSeed(dc.seed, "faults", "launch"))
	dc.channelFaultRNG = randx.New(randx.DeriveSeed(dc.seed, "faults", "channel"))
	dc.probeFaultRNG = randx.New(randx.DeriveSeed(dc.seed, "faults", "probe"))
	dc.bootTimes = sampleBootTimes(randx.New(randx.DeriveSeed(dc.seed, "boots")), prof, p.sched.Now())
	// One contiguous backing array of host shells: identity fields only, no
	// RNG state, no maps. A 10⁵-host region costs two allocations here; the
	// expensive parts of a host are drawn on first contact (Host.materialize).
	store := make([]Host, prof.NumHosts)
	dc.hosts = make([]*Host, prof.NumHosts)
	for i := range store {
		initHostShell(&store[i], dc, i)
		dc.hosts[i] = &store[i]
	}
	dc.initLifecycleKernel()
	if prof.Traffic.Enabled() {
		dc.initTraffic()
	}
	return dc
}

// MaterializedHosts reports how many hosts have drawn their heavy state —
// ground-truth instrumentation for the lazy-fleet claim (an idle region costs
// nothing; a lightly used one pays only for the hosts it touched).
func (dc *DataCenter) MaterializedHosts() int { return dc.liveHosts }

// Profile returns the region profile the data center was built from.
func (dc *DataCenter) Profile() RegionProfile { return dc.profile }

// Policy returns the region's resolved placement policy.
func (dc *DataCenter) Policy() PlacementPolicy { return dc.policy }

// Platform returns the platform the data center belongs to.
func (dc *DataCenter) Platform() *Platform { return dc.platform }

// Scheduler returns the platform's virtual clock.
func (dc *DataCenter) Scheduler() *simtime.Scheduler { return dc.platform.sched }

// Now returns the current virtual time.
func (dc *DataCenter) Now() simtime.Time { return dc.platform.sched.Now() }

// Region returns the data center's name.
func (dc *DataCenter) Region() Region { return dc.profile.Name }

// TrueHostCount returns the real fleet size (ground truth; the paper can
// only ever estimate a lower bound for it).
func (dc *DataCenter) TrueHostCount() int { return len(dc.hosts) }

// Account returns the account with the given identity, creating it on first
// use. Account identity determines base-host assignment deterministically.
func (dc *DataCenter) Account(id string) *Account {
	if a, ok := dc.accounts[id]; ok {
		return a
	}
	a := newAccount(dc, id)
	dc.accounts[id] = a
	dc.acctSeq = append(dc.acctSeq, a)
	return a
}

// instSlabSize is the chunk size of the data center's instance slab.
const instSlabSize = 512

// allocInstance returns a zeroed Instance slot from the slab. Creation is
// the simulator's hottest path; the slab amortizes it to one heap
// allocation per instSlabSize instances, and because slots are never
// recycled, pointers held by experiment code outlive termination safely.
func (dc *DataCenter) allocInstance() *Instance {
	if len(dc.instSlab) == 0 {
		dc.instSlab = make([]Instance, instSlabSize)
	}
	inst := &dc.instSlab[0]
	dc.instSlab = dc.instSlab[1:]
	return inst
}

// formatInstanceID renders the platform-assigned instance identity,
// "<account>/<service>-<seq %06d>". It runs lazily — Instance.ID caches the
// result on first call — because most instances in a fleet-scale world are
// never asked for their ID; hand-formatting keeps the forced path cheap.
func formatInstanceID(svc *Service, seq uint32) string {
	var b strings.Builder
	b.Grow(len(svc.account.id) + len(svc.name) + 8)
	b.WriteString(svc.account.id)
	b.WriteByte('/')
	b.WriteString(svc.name)
	b.WriteByte('-')
	var tmp [20]byte
	digits := strconv.AppendInt(tmp[:0], int64(seq), 10)
	for i := len(digits); i < 6; i++ {
		b.WriteByte('0')
	}
	b.Write(digits)
	return b.String()
}

// ProbeContention is the extraction-step primitive: the probing instance
// measures the instantaneous contention on its host's shared resource. The
// result counts co-resident instances whose workload is executing right now,
// plus occasional background activity — the signal a co-located attacker
// uses to detect when a victim program runs (threat model step 2).
func ProbeContention(prober *Instance) (int, error) {
	if prober.state == StateTerminated {
		return 0, fmt.Errorf("faas: probe from terminated instance %s", prober.ID())
	}
	h := prober.host
	if h.ProbeFault() {
		return 0, fmt.Errorf("faas: contention probe from %s: %w", prober.ID(), ErrProbeFault)
	}
	now := h.dc.platform.sched.Now()
	units := 0
	for _, inst := range h.instances {
		if inst == prober {
			continue
		}
		if inst.workload != nil && inst.workload(now) {
			units++
		}
	}
	if h.noiseRNG.Bool(0.008) {
		units++
	}
	return units, nil
}

// Resource identifies a shared hardware resource usable as a covert
// channel.
type Resource int

const (
	// ResourceRNG is the hardware random number generator [27]: rarely used
	// by anyone else, so background contention appears in well under 1% of
	// rounds — the paper's low-noise channel of choice.
	ResourceRNG Resource = iota
	// ResourceMemBus is the memory bus [62], the channel earlier co-location
	// studies used: strong signal, but ordinary tenant memory traffic makes
	// background contention common, so tests need more rounds and higher
	// vote thresholds (Varadarajan et al. report several seconds per
	// pairwise test on it).
	ResourceMemBus
	// ResourceLLC is the last-level cache (Zhao & Fletcher): an order of
	// magnitude more bandwidth and much shorter rounds than the RNG, but the
	// cache is shared with every co-resident workload, so its error rates
	// grow with host occupancy — see the channel-model registry in channel.go.
	ResourceLLC
)

// String names the resource.
func (r Resource) String() string {
	switch r {
	case ResourceRNG:
		return "rng"
	case ResourceMemBus:
		return "membus"
	case ResourceLLC:
		return "llc"
	default:
		return "resource?"
	}
}

// ContentionRounds runs one covert-channel test execution: `rounds`
// synchronized pressure rounds on the given shared resource, in each of which
// every live participant hammers it and measures the contention it observes —
// the live participants resident on its host (itself included) plus possible
// background activity from unrelated tenants (frequent on the memory bus, <1%
// of rounds on the RNG, §4.4.1). For participant i it writes the rounds that
// observed at least m units into votes[i] and, when dead is non-nil, the
// rounds that read nothing into dead[i]. Terminated instances generate no
// pressure and observe nothing (to the attacker their connection is simply
// gone): 0 votes, `rounds` dead rounds.
//
// This is the primitive the covert channel builds CTest from, and the only
// cross-instance observable the platform exposes, mirroring the real
// attacker's position; per-round tallies are what an attacker computes from
// per-round observations anyway.
//
// Nothing a round reads changes between the rounds of one execution (no clock
// advance, no event), so each host's state is resolved once and its rounds run
// back to back on its own noise stream (Host.contend). Per-host bookkeeping
// rides on host epoch marks; all participants must live on one Platform (true
// for any real instance set — instances never migrate across platforms).
func ContentionRounds(res Resource, parts []*Instance, rounds, m int, votes, dead []int) error {
	if len(parts) == 0 {
		return nil
	}
	if !res.Valid() {
		return fmt.Errorf("faas: unknown channel resource %d", int(res))
	}
	// Group by host in participant order; misfire episodes draw from the
	// region's shared channel-fault stream, so this order is the draw order.
	var mark uint64
	for _, inst := range parts {
		if inst.state == StateTerminated {
			continue
		}
		h := inst.host
		if mark == 0 {
			mark = h.dc.platform.nextMark()
		}
		if h.mark != mark {
			h.mark = mark
			h.roundCount = 0
			h.roundVotes = -1
			h.updateMisfire(res)
		}
		h.roundCount++
	}
	model := &channelModels[res]
	for i, inst := range parts {
		if inst.state == StateTerminated {
			votes[i] = 0
			if dead != nil {
				dead[i] = rounds
			}
			continue
		}
		h := inst.host
		if h.roundVotes < 0 {
			h.contend(model, res, rounds, m)
		}
		votes[i] = int(h.roundVotes)
		if dead != nil {
			dead[i] = int(h.roundDead)
		}
	}
	return nil
}
