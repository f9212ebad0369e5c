// Package randx provides deterministic random-number utilities used across
// the simulator. Every stochastic component of the simulation draws from a
// Source that is either seeded directly or derived from a parent seed plus a
// string label, so that an entire experiment is reproducible from a single
// root seed while sub-systems (hosts, services, accounts) remain statistically
// independent of each other.
package randx

import (
	"math"
	"math/rand"
	"strconv"
)

// Source is a deterministic random source. It wraps the simulator's
// stdlib-identical generator state (rngState) with the distribution helpers
// the simulator needs (normal, laplace, exponential, bounded ints, shuffles)
// and with stable sub-stream derivation. The stdlib distributions run
// through *rand.Rand over that state, and uniform floats read it directly
// (float64), so every draw is bit-identical to a
// rand.New(rand.NewSource(seed)) stream — while the state itself stays
// cloneable for world snapshots. Runs of Bool draws go through the block
// kernels CountBools/CountBoolPairs, which compare raw Int63 draws against
// the integer threshold BoolThreshold(p) and return hit counts.
type Source struct {
	// rng and st are stored by value so a Source is one allocation; rng's
	// internal source pointer refers to &st, restored by wire() whenever a
	// Source is created or copied.
	rng  rand.Rand
	st   rngState
	seed uint64
}

// wire points s.rng at s.st. rand.New inlines, so the temporary Rand it
// builds stays on the stack and only its value is kept.
func (s *Source) wire() { s.rng = *rand.New(&s.st) }

// New returns a Source seeded with the given seed.
func New(seed uint64) *Source {
	s := &Source{seed: seed}
	s.st.Seed(int64(seed))
	s.wire()
	return s
}

// Reseed reinitializes s in place to exactly the state New(seed) would
// return, the same stream from the top with no allocation, and returns s. It
// exists for scratch Sources that are derived, drained, and discarded in one
// scope (per-host materialization, recycle draws, pool sampling). Seeding
// itself is O(1), and the register words a stream never reads are never
// seeded, so the 4.9 KB allocation New zeroes is most of what such a stream
// would cost.
func (s *Source) Reseed(seed uint64) *Source {
	s.seed = seed
	s.st.Seed(int64(seed))
	s.wire()
	return s
}

// DeriveInto is Derive(labels...) into an existing Source: dst is reseeded
// in place to the identical derived stream and returned. dst must not be in
// use by any live caller (the simulator's scratch sources are single-purpose
// and the simulator is single-threaded, which is what makes this safe).
func (s *Source) DeriveInto(dst *Source, labels ...string) *Source {
	return dst.Reseed(s.DeriveSeed(labels...))
}

// Clone returns an independent copy of the source at its exact current
// stream position: both copies produce the identical remaining sequence, and
// drawing from one never affects the other. (The wrapped rand.Rand carries
// no draw state of its own beyond Read buffering, which Source never uses.)
func (s *Source) Clone() *Source {
	c := &Source{st: s.st, seed: s.seed}
	c.wire()
	return c
}

// fnv64a constants (hash/fnv, hand-rolled so Derive allocates nothing
// beyond the new Source itself).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Derive returns a new Source whose seed is a stable hash of the parent seed
// and the given labels. Deriving with the same labels always yields the same
// stream; different labels yield independent streams. Derive does not consume
// randomness from the parent.
func (s *Source) Derive(labels ...string) *Source {
	return New(s.DeriveSeed(labels...))
}

// DeriveSeed returns the seed Derive would build a stream from, without
// constructing the stream.
func (s *Source) DeriveSeed(labels ...string) uint64 { return DeriveSeed(s.seed, labels...) }

// DeriveSeed returns the seed of the stream a Source seeded with seed would
// Derive with these labels: the FNV-64a hash of the parent seed
// (little-endian) and the NUL-separated labels. Since derivation reads only
// the parent's seed, an entity that derives sub-streams but never draws holds
// its seed, not a Source.
func DeriveSeed(seed uint64, labels ...string) uint64 {
	h := hashSeed(seed)
	for _, l := range labels {
		h = hashLabel(h, l)
	}
	return h
}

// hashSeed starts a derivation hash with the parent seed's eight bytes.
func hashSeed(seed uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h = (h ^ (seed & 0xff)) * fnvPrime64
		seed >>= 8
	}
	return h
}

// hashLabel folds one label into a derivation hash, after a NUL separator so
// ("ab","c") != ("a","bc").
func hashLabel(h uint64, l string) uint64 {
	h *= fnvPrime64 // the NUL byte: (h ^ 0) * prime
	for i := 0; i < len(l); i++ {
		h = (h ^ uint64(l[i])) * fnvPrime64
	}
	return h
}

// DeriveIndexedSeed is DeriveSeed(seed, label, strconv.Itoa(idx)) with the
// digits formatted into a stack buffer: per-entity derivation over dense
// integer identities (one stream per host) allocates no label string.
func DeriveIndexedSeed(seed uint64, label string, idx int) uint64 {
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(idx), 10)
	return hashLabel(hashLabel(hashSeed(seed), label), string(digits))
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.float64() }

// float64 is rand.(*Rand).Float64 read straight off the generator state: the
// same Int63 draw scaled by 2⁻⁶³, resampled when the quotient rounds up to
// 1.0, so its value stream is bit-identical to the stdlib's — without the
// interface call through rand.Source that the wrapped Rand pays per draw.
// It may call reach, so it does not inline: each single draw makes one
// direct call. The resample recurses rather than loops, which keeps the
// path without a fill free of register spills.
func (s *Source) float64() float64 {
	st := &s.st
	if st.down() {
		st.reach()
	}
	if f := float64(st.add()&rngMask) / (1 << 63); f != 1 {
		return f
	}
	return s.float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.rng.Uint64() }

// Range returns a uniform float64 in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.float64()
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.float64() < p }

// keepBound is the first Int63 draw float64 rejects: every x ≥ 2⁶³−512
// rounds to 2⁶³, a quotient of exactly 1.
const keepBound = 1<<63 - 512

// Threshold is a Bool probability as the block kernels read it: the least
// Int63 draw that Bool(p) comes up false on.
type Threshold uint64

// BoolThreshold returns t(p), the least Int63 draw x with
// float64(x)/2⁶³ ≥ p, so that for every draw float64 keeps, Bool(p) is
// x < t(p). With T = p·2⁶³ (exact: a power-of-two scaling), draws up to 2⁵³
// convert exactly and t is ⌈T⌉. Above 2⁵³, T is an integer float and x
// rounds to at least T from the midpoint to T's predecessor on; the
// midpoint itself ties to even, which is T only when T's mantissa is even.
func BoolThreshold(p float64) Threshold {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return keepBound
	}
	T := p * (1 << 63)
	if T <= 1<<53 {
		return Threshold(math.Ceil(T))
	}
	bits := math.Float64bits(T)
	mid := (uint64(T) + uint64(math.Float64frombits(bits-1))) / 2
	return Threshold(mid + bits&1)
}

// CountBools draws n rounds of Bool(p), for t = BoolThreshold(p), and
// returns how many came up true. It draws exactly what the n calls would.
func (s *Source) CountBools(n int, t Threshold) int {
	return s.st.countBelow(n, uint64(t))
}

// CountBoolPairs draws n rounds of Bool(p) then Bool(q), for
// tp = BoolThreshold(p) and tq = BoolThreshold(q), and returns how many
// rounds' first draws, second draws, and both draws came up true. It draws
// exactly what the 2n calls would.
func (s *Source) CountBoolPairs(n int, tp, tq Threshold) (hp, hq, both int) {
	return s.st.countPairs(n, uint64(tp), uint64(tq))
}

// b2i is 1 for true and 0 for false; it compiles to a flag set, no branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Normal returns a draw from N(mean, stddev²).
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.rng.NormFloat64()
}

// Laplace returns a draw from the Laplace distribution with the given mean
// and scale b (variance 2b²). Laplace has heavier tails than the normal
// distribution and models per-host TSC frequency error well: most hosts are
// close to nominal, a few deviate a lot.
func (s *Source) Laplace(mean, b float64) float64 {
	u := s.float64() - 0.5
	if u >= 0 {
		return mean - b*math.Log(1-2*u)
	}
	return mean + b*math.Log(1+2*u)
}

// LogNormal returns exp(N(mu, sigma²)).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Shuffle pseudo-randomly permutes n elements using the provided swap
// function.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (s *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("randx: Sample with k out of range")
	}
	// Partial Fisher-Yates: only the first k slots are needed.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// splitmixGamma is the golden-ratio increment of the SplitMix64 generator.
const splitmixGamma = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 finalizer: a fast, high-quality bijective mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// MixInit starts a mixer chain: the first round of Mix3. Callers that hash
// many values sharing a prefix (every lifecycle draw of one data center
// shares the seed word; every draw of one instance also shares the identity
// word) precompute the shared rounds once and finish with MixStep per draw.
func MixInit(a uint64) uint64 { return mix64(a + splitmixGamma) }

// MixStep folds one more word into a mixer chain started by MixInit.
// MixStep(MixStep(MixInit(a), b), c) == Mix3(a, b, c), bit for bit.
func MixStep(x, b uint64) uint64 { return mix64(x + b + splitmixGamma) }

// Mix3 hashes three words into one well-distributed 64-bit value by chaining
// the SplitMix64 finalizer with golden-ratio increments. It is stateless and
// allocation-free: where Derive pays ~5 KB of generator state per stream,
// Mix3 lets millions of fine-grained consumers (per-instance lifecycle
// events) each own a logical stream addressed by (seed, identity, draw#).
func Mix3(a, b, c uint64) uint64 {
	return MixStep(MixStep(MixInit(a), b), c)
}

// Unit maps a 64-bit value to a uniform float64 in [0, 1) using its top 53
// bits, the standard conversion with full double precision.
func Unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// WeightedIndex returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero-weight entries are never chosen. It panics
// if weights is empty, contains a negative value, or sums to zero.
func (s *Source) WeightedIndex(weights []float64) int {
	if len(weights) == 0 {
		panic("randx: WeightedIndex with no weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("randx: WeightedIndex with negative weight")
		}
		total += w
	}
	if total == 0 {
		panic("randx: WeightedIndex with zero total weight")
	}
	target := s.float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if target < acc {
			return i
		}
	}
	// Floating-point accumulation can leave target marginally above acc;
	// return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return len(weights) - 1
}
