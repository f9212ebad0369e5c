package randx

import "math/rand"

// rngState is an in-repo replica of math/rand's additive lagged-Fibonacci
// generator (rngSource): x_n = x_{n-273} + x_{n-607} over 64-bit words. The
// simulator cannot use *rand.Rand's own source for two reasons, both rooted
// in the same fact — rngSource's state is unexported:
//
//   - Snapshots. Copy-on-write world forking (Platform.Snapshot) must clone
//     every stream mid-run, preserving its exact position. rngState is a
//     plain value: Source.Clone copies it.
//   - Seeding cost. rngSource.Seed fills all 607 register words from 1,841
//     sequential Lehmer-LCG steps, x → 48271·x mod (2³¹−1), each through a
//     division-based Schrage reduction. Most derived streams read only a
//     few of those words: Host.materialize's scratch stream takes 5–9
//     draws. Seeding value k is x₀·48271ᵏ mod (2³¹−1), so rngState.Seed
//     only keeps x₀, and the draws seed each word, with the identical value,
//     when they first reach it (see rngState). The fill computes the
//     modular products with a widening multiply and two shift-adds
//     (seedLCG, mulMod31), several times faster than Schrage and exactly
//     equal.
//
// Byte-for-byte equality with math/rand is load-bearing: every golden digest
// in the repo pins output produced through rand.NewSource streams.
// TestRNGStateMatchesStdlib locks the equivalence against the running
// stdlib for every draw type the simulator uses.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// rngCooked is rngSource's additive constant table. It is recovered from the
// stdlib at init instead of being vendored: the recurrence is invertible, so
// the initial register of any seeded rngSource — and from it the table — can
// be solved out of the source's first 607 outputs. This keeps the replica
// self-verifying against whatever stdlib the binary was built with.
var rngCooked = recoverCooked()

func recoverCooked() [rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out [rngLen]uint64
	for i := range out {
		out[i] = src.Uint64()
	}
	// With tap=0, feed=334 at start, step n reads positions 333-n (feed) and
	// 606-n (tap), both mod 607, writing the sum back to the feed position.
	// Unwinding which positions were still initial at each step gives the
	// seeded register vec[:] in three ranges.
	var vec [rngLen]uint64
	for n := 273; n <= 333; n++ { // feed still initial, tap already written
		vec[333-n] = out[n] - out[n-273]
	}
	for n := 334; n <= 606; n++ { // feed wrapped to 940-n, still initial
		vec[940-n] = out[n] - out[n-273]
	}
	for n := 0; n <= 272; n++ { // both initial; 606-n solved above
		vec[333-n] = out[n] - vec[606-n]
	}
	// vec[i] = seedWord_i(seed) ^ rngCooked[i]; replay the seed chain to
	// peel the seed words off.
	var cooked [rngLen]int64
	x := uint64(seed)
	for i := 0; i < 20; i++ {
		x = seedLCG(x)
	}
	for i := 0; i < rngLen; i++ {
		x = seedLCG(x)
		u := int64(x) << 40
		x = seedLCG(x)
		u ^= int64(x) << 20
		x = seedLCG(x)
		u ^= int64(x)
		cooked[i] = int64(vec[i]) ^ u
	}
	return cooked
}

// seedLCG is rngSource's seeding generator, x → 48271·x mod (2³¹−1),
// computed with a widening multiply and shift-add folds instead of the
// stdlib's division-based Schrage reduction. Exact for x in [1, 2³¹−2]; the
// Lehmer recurrence with a prime modulus never leaves that range.
func seedLCG(x uint64) uint64 {
	p := 48271 * x // ≤ 48271·(2³¹−1) < 2⁴⁷
	p = (p & int32max) + (p >> 31)
	p = (p & int32max) + (p >> 31)
	if p >= int32max {
		p -= int32max
	}
	return p
}

// seedJump6 is 48271⁶ mod (2³¹−1): the multiplier that advances the seeding
// LCG six steps at once, so a register fill can run six independent
// dependency chains instead of one serial chain. Six lanes produce exactly
// two register words per iteration (three values each), so the fill needs
// no intermediate buffer.
var seedJump6 = func() uint64 {
	x := uint64(1)
	for i := 0; i < 6; i++ {
		x = seedLCG(x)
	}
	return x
}()

// seedPow[i] is 48271^(21+3i) mod (2³¹−1). rngSource.Seed discards 20 LCG
// values and builds register word i from values 21+3i, 22+3i and 23+3i, so
// word i of the stream seeded with x starts from seeding value x·seedPow[i].
var seedPow = func() (p [rngLen]uint32) {
	x := uint64(1)
	for i := 0; i < 21; i++ {
		x = seedLCG(x)
	}
	for i := range p {
		p[i] = uint32(x)
		x = seedLCG(seedLCG(seedLCG(x)))
	}
	return p
}()

// mulMod31 returns m·x mod (2³¹−1) for m, x in [1, 2³¹−2] (product < 2⁶²,
// so the same two-fold reduction as seedLCG applies).
func mulMod31(m, x uint64) uint64 {
	p := m * x
	p = (p & int32max) + (p >> 31)
	p = (p & int32max) + (p >> 31)
	if p >= int32max {
		p -= int32max
	}
	return p
}

// rngFeed0 is the feed index a fresh register starts from; tap starts at 0.
const rngFeed0 = rngLen - rngTap

// minFill is the fewest draws the first fill after Seed seeds the register
// for. Host.materialize's scratch stream takes 5–9 draws.
const minFill = 8

// rngState is the generator state: a plain value, cloneable by assignment.
// It implements rand.Source64, so rand.New(&st) drives every stdlib
// distribution (Float64, NormFloat64, ExpFloat64, Perm, ...) through it with
// bit-identical results.
//
// The register is seeded lazily. Until feed first wraps, tap = feed + 273,
// and the draws so far have read the words [feed, 334) and [tap, 607). So
// one mark lo in [0, 334] names the seeded words: [lo, 334) and
// [max(lo+273, 334), 607). A draw whose feed falls below lo seeds more words
// first; at lo = 0 the whole register is seeded, and a feed below lo is the
// wrap. Words outside the mark hold stale values and are never read.
type rngState struct {
	vec       [rngLen]int64
	tap, feed int32
	lo        int32  // the fill mark
	x0        uint32 // the reduced seed: seeding value 0
}

// Seed positions the register as rngSource.Seed does, in O(1): it keeps the
// reduced seed and marks no word seeded. The draws fill the register.
func (r *rngState) Seed(seed int64) {
	r.tap = 0
	r.feed = rngFeed0
	r.lo = rngFeed0

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	r.x0 = uint32(seed)
}

// grow seeds the register down to at least feed word f < lo, and to at
// least twice the draws it was seeded for, so a stream that draws its whole
// register takes a handful of fills.
func (r *rngState) grow(f int) {
	lo := int(r.lo)
	to := max(min(f, 2*lo-rngFeed0, rngFeed0-minFill), 0)
	r.seedWords(to, lo)
	r.seedWords(max(to+rngTap, rngFeed0), max(lo+rngTap, rngFeed0))
	r.lo = int32(to)
}

// seedWords writes register words [i, j) exactly as rngSource.Seed does.
// It generates their seeding values as six interleaved lanes advanced by
// the 6-step jump multiplier: the lane chains are independent, so the CPU
// overlaps multiplies that would otherwise serialize on a ~4-cycle latency
// each. Lanes a..c are word i, lanes d..f word i+1.
func (r *rngState) seedWords(i, j int) {
	if i >= j {
		return
	}
	a := mulMod31(uint64(seedPow[i]), uint64(r.x0))
	b := seedLCG(a)
	c := seedLCG(b)
	d := seedLCG(c)
	e := seedLCG(d)
	f := seedLCG(e)
	j6 := seedJump6
	v := r.vec[i:j]
	cooked := rngCooked[i:j][:len(v)]
	k := 0
	for ; k+2 <= len(v); k += 2 {
		v[k] = (int64(a)<<40 ^ int64(b)<<20 ^ int64(c)) ^ cooked[k]
		v[k+1] = (int64(d)<<40 ^ int64(e)<<20 ^ int64(f)) ^ cooked[k+1]
		a = mulMod31(j6, a)
		b = mulMod31(j6, b)
		c = mulMod31(j6, c)
		d = mulMod31(j6, d)
		e = mulMod31(j6, e)
		f = mulMod31(j6, f)
	}
	if k < len(v) { // an odd run: the last word takes the first three lanes
		v[k] = (int64(a)<<40 ^ int64(b)<<20 ^ int64(c)) ^ cooked[k]
	}
}

// Uint64 steps the lagged-Fibonacci recurrence, as rngSource.Uint64 does.
func (r *rngState) Uint64() uint64 {
	if r.down() {
		r.reach()
	}
	return r.add()
}

// Int63 masks the top bit off, as rngSource.Int63 does. It repeats Uint64
// instead of calling it: a body that may call reach cannot be inlined.
func (r *rngState) Int63() int64 {
	if r.down() {
		r.reach()
	}
	return int64(r.add() & rngMask)
}

// down moves tap and feed one word down. It reports a feed below the fill
// mark, which reach must settle before add reads the words.
func (r *rngState) down() bool {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	return r.feed < r.lo
}

// add writes the sum of the feed and tap words back to feed and returns it.
func (r *rngState) add() uint64 {
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// reach makes feed word r.feed readable: it wraps a feed that fell off the
// bottom of a whole register, and otherwise seeds down to it.
func (r *rngState) reach() {
	if r.feed < 0 {
		r.feed += rngLen
		return
	}
	r.grow(int(r.feed))
}

// The block kernels below step the register exactly as a run of float64
// calls would, keeping only draws below keepBound (a skipped draw is below
// no threshold, as every threshold is at most keepBound). They walk it in
// runs that end where tap or feed wraps, so the inner loops carry no wrap
// test, and write the taps back once. An index at 0 steps to the register's
// top word next, so each run first rewinds it to rngLen. A run's whole
// blocks of four draws go to the vector kernels where the CPU has them
// (belowBlocks, pairBlocks; elsewhere pairBlocks runs pairRounds); the Go
// loops here take the words those leave.

// countBelow takes the next n kept draws and returns how many are below t.
func (r *rngState) countBelow(n int, t uint64) (below int) {
	tap, feed := int(r.tap), int(r.feed)
	for n > 0 {
		tap, feed = (tap+rngLen-1)%rngLen+1, (feed+rngLen-1)%rngLen+1
		k := min(tap, feed, n)
		if feed-k < int(r.lo) {
			r.grow(feed - k)
		}
		fv := r.vec[feed-k : feed]
		tv := r.vec[tap-k : tap][:len(fv)]
		left, b, rejected := belowBlocks(fv, tv, t)
		below, n = below+b, n+rejected
		fv = fv[:left]
		tv = tv[:len(fv)]
		for j := len(fv) - 1; j >= 0; j-- {
			x := fv[j] + tv[j]
			fv[j] = x
			u := uint64(x) & rngMask
			if u >= keepBound {
				n++
			}
			if u < t {
				below++
			}
		}
		tap, feed, n = tap-k, feed-k, n-k
	}
	r.tap, r.feed = int32(tap), int32(feed)
	return below
}

// countPairs takes the next 2n kept draws as n rounds of a draw against tp
// then one against tq, and returns how many rounds' first draws, second
// draws, and both draws were below their thresholds. Each run hands its
// whole rounds to pairBlocks once a round starts (a run may open on a
// round's second draw, left by the run before). A rejected draw shifts the
// rounds of every later draw, so pairBlocks leaves a block that holds one,
// and the rest of its run, to the loop here.
func (r *rngState) countPairs(n int, tp, tq uint64) (hp, hq, both int) {
	tap, feed := int(r.tap), int(r.feed)
	first := 0 // the current round's first hit
	for m := 2 * n; m > 0; {
		tap, feed = (tap+rngLen-1)%rngLen+1, (feed+rngLen-1)%rngLen+1
		k := min(tap, feed, m)
		if feed-k < int(r.lo) {
			r.grow(feed - k)
		}
		fv := r.vec[feed-k : feed]
		tv := r.vec[tap-k : tap][:len(fv)]
		blocked := false
		for j := len(fv); j > 0; {
			if !blocked && m%2 == 0 {
				blocked = true
				left, p, q, pq := pairBlocks(fv[:j], tv[:j], tp, tq)
				hp, hq, both, m, j = hp+p, hq+q, both+pq, m-(j-left), left
				continue
			}
			j--
			x := fv[j] + tv[j]
			fv[j] = x
			u := uint64(x) & rngMask
			if u >= keepBound {
				continue
			}
			if m%2 == 0 {
				first = b2i(u < tp)
				hp += first
			} else {
				second := b2i(u < tq)
				hq, both = hq+second, both+first&second
			}
			m--
		}
		tap, feed = tap-k, feed-k
	}
	r.tap, r.feed = int32(tap), int32(feed)
	return hp, hq, both
}

// pairRounds is pairBlocks' Go kernel: it takes whole rounds, two draws
// each, down from the top of a run, stops before a round that holds a
// rejected draw, and returns the words left below the rounds it took.
func pairRounds(fv, tv []int64, tp, tq uint64) (left, hp, hq, both int) {
	tv = tv[:len(fv)]
	j := len(fv)
	for ; j >= 2; j -= 2 {
		x, y := fv[j-1]+tv[j-1], fv[j-2]+tv[j-2]
		u, w := uint64(x)&rngMask, uint64(y)&rngMask
		if max(u, w) >= keepBound {
			break
		}
		fv[j-1], fv[j-2] = x, y
		a, b := b2i(u < tp), b2i(w < tq)
		hp, hq, both = hp+a, hq+b, both+a&b
	}
	return j, hp, hq, both
}
