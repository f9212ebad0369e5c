package faas

// This file is the platform's channel-model registry: one channelModel per
// shared-resource family usable as a covert channel. The registry replaces
// the historical per-Resource switch in the contention-round primitive, and
// is where a channel's noise physics live — how its error rates respond to
// unrelated tenants on the host. The covert package layers CTest
// configurations (including each channel's round time) on top.

import "eaao/internal/randx"

// NumResources is the number of registered shared-resource families.
// Per-channel state (host misfire windows, FaultPlan.PerChannel) is indexed
// by Resource in fixed-size arrays of this length, so plans and hosts stay
// comparable and snapshot-trivial.
const NumResources = 3

// channelModel describes the background-noise character of one
// covert-channel resource family, including how the channel degrades under
// bystander load.
type channelModel struct {
	// BaseNoise is the per-host, per-round probability of background
	// contention from unrelated tenants on a quiet host.
	BaseNoise float64
	// LoadNoise raises the per-round false-positive probability by this much
	// for every bystander instance resident on the host but not
	// participating in the round; LoadNoiseCap bounds the total. Zero means
	// the channel is load-insensitive (the RNG: nobody else touches it).
	LoadNoise    float64
	LoadNoiseCap float64
	// LoadDrop is the per-bystander probability that the whole round reads
	// dead on the host — a false negative, the cache-eviction failure mode
	// of contention channels on a busy LLC; LoadDropCap bounds it.
	LoadDrop    float64
	LoadDropCap float64
	// ServingDrop adds to the round-drop probability for every resident that
	// is actively serving request demand (an autoscaled instance with
	// demand > 0, i.e. a background tenant's workload). A warm sandbox that
	// merely holds a connection occupies cache lines once; one streaming
	// requests re-walks its working set continuously and evicts the probe's
	// lines every round, so serving bystanders degrade the channel far
	// harder than resident-but-idle ones. Zero in every world without
	// demand-driven neighbors, which keeps quiet-world draw outcomes
	// byte-identical. ServingDropCap bounds the serving term on its own;
	// the residency term's LoadDropCap still applies separately.
	ServingDrop    float64
	ServingDropCap float64

	// baseAt is BaseNoise as a draw threshold: the noise odds of every
	// execution on a channel with no LoadNoise.
	baseAt randx.Threshold
}

// channelModels is the registry, indexed by Resource.
//
// The RNG and memory-bus rows reproduce the historical hardcoded behavior
// exactly (0.8% and 18% background, no load sensitivity), so worlds that only
// ever drive those channels draw byte-identically to builds before the
// registry existed. The LLC row models the Zhao & Fletcher channel: an order
// of magnitude more bandwidth than the RNG and 5× shorter tests, but the
// cache is shared with every co-resident workload, so both error rates grow
// with host occupancy.
var channelModels = withThresholds([NumResources]channelModel{
	ResourceRNG:    {BaseNoise: 0.008},
	ResourceMemBus: {BaseNoise: 0.18},
	ResourceLLC: {
		BaseNoise:    0.04,
		LoadNoise:    0.03,
		LoadNoiseCap: 0.45,
		LoadDrop:     0.015,
		LoadDropCap:  0.30,
		// Serving bystanders are ~3× the pressure of resident ones: a host
		// mostly full of request-serving tenants pushes the stock 36-of-60
		// verdict underwater, which is the measured degrade-under-load
		// behavior of cache channels on shared hosts.
		ServingDrop:    0.005,
		ServingDropCap: 0.30,
	},
})

// withThresholds fills in each model's baseAt.
func withThresholds(ms [NumResources]channelModel) [NumResources]channelModel {
	for i := range ms {
		ms[i].baseAt = randx.BoolThreshold(ms[i].BaseNoise)
	}
	return ms
}

// Valid reports whether the resource is a registered family.
func (r Resource) Valid() bool { return r >= 0 && int(r) < NumResources }

// roundNoise is the false-positive probability of one contention round on
// host h: base background plus load sensitivity from bystander tenants
// (residents not participating in the round). Pointer receiver: the model
// is read on the CTest path, so it must not be copied.
func (m *channelModel) roundNoise(h *Host) float64 {
	p := m.BaseNoise
	if m.LoadNoise > 0 {
		if by := h.ResidentCount() - int(h.roundCount); by > 0 {
			p += m.LoadNoise * float64(by)
		}
		if m.LoadNoiseCap > 0 && p > m.LoadNoiseCap {
			p = m.LoadNoiseCap
		}
	}
	return p
}

// roundDrop is the probability that this round reads dead on host h (a
// load-induced false negative): a residency term from bystander instances
// plus a steeper term from bystanders actively serving request demand, each
// capped on its own. Zero on load-insensitive channels — callers gate on
// LoadDrop > 0 before drawing, which is what keeps the quiet channels' draw
// sequences frozen; and the serving term is zero wherever no neighbor runs
// demand-driven load, so quiet-world outcomes are frozen too.
func (m *channelModel) roundDrop(h *Host) float64 {
	if m.LoadDrop <= 0 {
		return 0
	}
	p := 0.0
	if by := h.ResidentCount() - int(h.roundCount); by > 0 {
		p = m.LoadDrop * float64(by)
		if m.LoadDropCap > 0 && p > m.LoadDropCap {
			p = m.LoadDropCap
		}
	}
	if m.ServingDrop > 0 {
		if sv := h.servingResidents(); sv > 0 {
			q := m.ServingDrop * float64(sv)
			if m.ServingDropCap > 0 && q > m.ServingDropCap {
				q = m.ServingDropCap
			}
			p += q
		}
	}
	return p
}

// contend runs every round of one ContentionRounds execution on host h and
// stores the host's tallies (rounds observing at least m units, rounds
// reading dead) in h.roundVotes and h.roundDead. All participants on h
// observe the same units in a round: the participant count plus the round's
// background draw, corrupted by an active misfire episode (a phantom unit,
// or a dead read) or by a load-induced drop. Noise and drop odds and the
// misfire bias are fixed for the execution, so a round's units depend only
// on whether its noise draw hit and whether it dropped: the rounds are drawn
// as one block (one noise Bool and, on load-sensitive channels, one drop
// Bool per round, in that order) that counts the hits, the drops and the
// rounds with both, and the tallies follow from those counts.
func (h *Host) contend(model *channelModel, res Resource, rounds, m int) {
	noise := model.baseAt
	if model.LoadNoise > 0 {
		noise = randx.BoolThreshold(model.roundNoise(h))
	}
	var hits, drops, both int
	if model.LoadDrop > 0 {
		hits, drops, both = h.noiseRNG.CountBoolPairs(rounds, noise, randx.BoolThreshold(model.roundDrop(h)))
	} else {
		hits = h.noiseRNG.CountBools(rounds, noise)
	}
	count := int(h.roundCount)
	switch bias := h.misfireBias[res]; {
	case bias > 0: // a phantom unit in every round, which no drop reads dead
		count, drops, both = count+1, 0, 0
	case bias < 0: // every round reads dead
		hits, drops, both = 0, rounds, 0
	}
	// Rounds that did not drop read count units, count+1 if the noise hit.
	lit := hits - both
	unlit := rounds - drops - lit
	votes, dead := 0, drops
	if count+1 >= m {
		votes += lit
	}
	if count >= m {
		votes += unlit
	}
	if m <= 0 {
		votes += drops
	}
	if count == 0 {
		dead += unlit
	}
	h.roundVotes, h.roundDead = int32(votes), int32(dead)
}
