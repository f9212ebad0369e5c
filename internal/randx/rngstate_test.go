package randx

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// rngSeeds covers the seed shapes the simulator produces: zero, small CLI
// seeds, derived FNV hashes (arbitrary 64-bit values), and values whose
// int64 view is negative.
var rngSeeds = []uint64{0, 1, 2, 9, 42, 1<<31 - 1, 1 << 31, 0x9e3779b97f4a7c15, ^uint64(0), 0xdeadbeefcafef00d}

// TestRNGStateMatchesStdlib locks rngState to math/rand's rngSource: every
// draw type the simulator uses must be bit-identical, interleaved, across
// representative seeds. Golden digests depend on this equivalence.
func TestRNGStateMatchesStdlib(t *testing.T) {
	for _, seed := range rngSeeds {
		st := &rngState{}
		st.Seed(int64(seed))
		got := rand.New(st)
		want := rand.New(rand.NewSource(int64(seed)))
		for i := 0; i < 2000; i++ {
			switch i % 8 {
			case 0:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, g, w)
				}
			case 1:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, g, w)
				}
			case 2:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, g, w)
				}
			case 3:
				if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
					t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, g, w)
				}
			case 4:
				if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
					t.Fatalf("seed %d draw %d: ExpFloat64 %v != %v", seed, i, g, w)
				}
			case 5:
				if g, w := got.Intn(1+i), want.Intn(1+i); g != w {
					t.Fatalf("seed %d draw %d: Intn %d != %d", seed, i, g, w)
				}
			case 6:
				g, w := got.Perm(7), want.Perm(7)
				for j := range g {
					if g[j] != w[j] {
						t.Fatalf("seed %d draw %d: Perm %v != %v", seed, i, g, w)
					}
				}
			case 7:
				gs, ws := []int{0, 1, 2, 3, 4, 5}, []int{0, 1, 2, 3, 4, 5}
				got.Shuffle(len(gs), func(a, b int) { gs[a], gs[b] = gs[b], gs[a] })
				want.Shuffle(len(ws), func(a, b int) { ws[a], ws[b] = ws[b], ws[a] })
				for j := range gs {
					if gs[j] != ws[j] {
						t.Fatalf("seed %d draw %d: Shuffle %v != %v", seed, i, gs, ws)
					}
				}
			}
		}
	}
}

// FuzzLazySeed checks the lazily seeded register against math/rand's own
// source. A script of draw shapes runs on a Source and on rand.NewSource
// with the same seed; counted shapes take up to 289 rounds, so scripts
// cross the fill mark's 273, 334 and 607 step boundaries. A Clone taken at
// a fuzzed step must continue exactly as the original did. Then the Source,
// which has drawn, is reseeded and replays the script against a fresh
// stdlib source: a stale register word from the old seed would show there.
func FuzzLazySeed(f *testing.F) {
	every := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	long := []byte{250, 251, 252, 253, 254, 0, 2, 250, 252, 13, 1}
	f.Add(uint64(9), every, uint16(3), uint64(7))
	f.Add(uint64(0), long, uint16(2), uint64(9))
	f.Add(uint64(1<<31-1), append(long, every...), uint16(9), ^uint64(0))
	f.Add(uint64(42), []byte{}, uint16(0), uint64(42))
	f.Fuzz(func(t *testing.T, seed uint64, script []byte, cut uint16, reseed uint64) {
		if len(script) > 64 {
			script = script[:64]
		}
		at := int(cut) % (len(script) + 1)
		got, want := New(seed), rand.New(rand.NewSource(int64(seed)))
		var clone *Source
		var after []uint64
		for i, op := range script {
			if i == at {
				clone = got.Clone()
			}
			g, w := lazyDraw(got, op), stdlibDraw(want, op)
			if g != w {
				t.Fatalf("seed %d step %d op %d: got %#x, stdlib %#x", seed, i, op, g, w)
			}
			if i >= at {
				after = append(after, g)
			}
		}
		if clone == nil {
			clone = got.Clone()
		}
		for i, op := range script[at:] {
			if g := lazyDraw(clone, op); g != after[i] {
				t.Fatalf("seed %d: clone from step %d diverged at step %d: %#x, original %#x", seed, at, at+i, g, after[i])
			}
		}
		got.Reseed(reseed)
		want = rand.New(rand.NewSource(int64(reseed)))
		for i, op := range script {
			if g, w := lazyDraw(got, op), stdlibDraw(want, op); g != w {
				t.Fatalf("reseed %d step %d op %d: got %#x, stdlib %#x", reseed, i, op, g, w)
			}
		}
	})
}

// lazyDraw takes draw shape op%7 from s and returns its value as bits;
// op/7 sizes the shape.
func lazyDraw(s *Source, op byte) uint64 {
	k := int(op / 7)
	p, q := channelOdds[k%len(channelOdds)], channelOdds[(k+2)%len(channelOdds)]
	switch op % 7 {
	case 0:
		return s.Uint64()
	case 1:
		return uint64(s.rng.Int63())
	case 2:
		return math.Float64bits(s.Float64())
	case 3:
		return math.Float64bits(s.Normal(0, 1))
	case 4:
		return uint64(s.Intn(1 + int(op)<<23))
	case 5:
		return uint64(s.CountBools(1+8*k, BoolThreshold(p)))
	default:
		hp, hq, both := s.CountBoolPairs(1+8*k, BoolThreshold(p), BoolThreshold(q))
		return uint64(hp) | uint64(hq)<<16 | uint64(both)<<32
	}
}

// stdlibDraw is lazyDraw on a math/rand stream: the counted shapes run as
// loops of Float64 comparisons.
func stdlibDraw(r *rand.Rand, op byte) uint64 {
	k := int(op / 7)
	p, q := channelOdds[k%len(channelOdds)], channelOdds[(k+2)%len(channelOdds)]
	switch op % 7 {
	case 0:
		return r.Uint64()
	case 1:
		return uint64(r.Int63())
	case 2:
		return math.Float64bits(r.Float64())
	case 3:
		return math.Float64bits(r.NormFloat64())
	case 4:
		return uint64(r.Intn(1 + int(op)<<23))
	case 5:
		hits := 0
		for i := 0; i < 1+8*k; i++ {
			if r.Float64() < p {
				hits++
			}
		}
		return uint64(hits)
	default:
		var hp, hq, both int
		for i := 0; i < 1+8*k; i++ {
			a, b := b2i(r.Float64() < p), b2i(r.Float64() < q)
			hp, hq, both = hp+a, hq+b, both+a&b
		}
		return uint64(hp) | uint64(hq)<<16 | uint64(both)<<32
	}
}

// TestSourceFloatPathMatchesStdlib locks Source's direct float path (Bool,
// Range, Laplace, Float64 and WeightedIndex read the generator state without
// going through rand.Rand) to the stdlib: interleaved with the draws that
// still run through rand.Rand (Normal, Intn), every value must be
// bit-identical to the same calls on rand.New(rand.NewSource(seed)).
func TestSourceFloatPathMatchesStdlib(t *testing.T) {
	weights := []float64{0.5, 0, 2, 1.25}
	for _, seed := range rngSeeds {
		got := New(seed)
		want := rand.New(rand.NewSource(int64(seed)))
		for i := 0; i < 3000; i++ {
			var g, w float64
			switch i % 7 {
			case 0:
				p := float64(i%11) / 10
				g, w = b2f(got.Bool(p)), b2f(want.Float64() < p)
			case 1:
				g, w = got.Range(-3, 5), -3+8*want.Float64()
			case 2:
				g = got.Laplace(1, 0.25)
				if u := want.Float64() - 0.5; u >= 0 {
					w = 1 - 0.25*math.Log(1-2*u)
				} else {
					w = 1 + 0.25*math.Log(1+2*u)
				}
			case 3:
				g, w = got.Normal(2, 3), 2+3*want.NormFloat64()
			case 4:
				g, w = float64(got.Intn(1+i)), float64(want.Intn(1+i))
			case 5:
				g, w = got.Float64(), want.Float64()
			case 6:
				g = float64(got.WeightedIndex(weights))
				target, acc := want.Float64()*3.75, 0.0
				for j, wt := range weights {
					if acc += wt; target < acc {
						w = float64(j)
						break
					}
				}
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d draw %d: got %v, stdlib %v", seed, i, g, w)
			}
		}
	}
}

// TestSourceFloatRetriesLikeStdlib covers the branch no seed reaches in
// practice: an Int63 of 2⁶³−1 rounds up to 1.0, and both the stdlib and
// Source resample instead of returning it.
func TestSourceFloatRetriesLikeStdlib(t *testing.T) {
	s := New(7)
	// Seed the whole register first, or the first draw's fill would
	// overwrite the planted words. The next Uint64 sums the words just below
	// feed and tap.
	seedWhole(&s.st)
	feed, tap := (s.st.feed+rngLen-1)%rngLen, (s.st.tap+rngLen-1)%rngLen
	s.st.vec[feed], s.st.vec[tap] = rngMask, 0
	st := s.st
	want := rand.New(&st).Float64()
	if got := s.Float64(); got != want || got >= 1 {
		t.Fatalf("Float64 after a 1.0 rounding: got %v, stdlib %v", got, want)
	}
	if s.st != st {
		t.Fatal("Source and stdlib consumed different draw counts across the retry")
	}
	if taken := (feed - s.st.feed + rngLen) % rngLen; taken != 1 {
		t.Fatalf("Float64 took %d draws past the planted one, want 1 (the retry)", taken)
	}
}

// seedWhole seeds every register word that the fill mark has not reached,
// so a test can poke the register or compare two states word for word.
func seedWhole(st *rngState) {
	if st.lo > 0 {
		st.grow(0)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// TestSeedLCGMatchesSchrage checks the fold-based Lehmer step against the
// stdlib's division form across the full cycle edges and a long chain.
func TestSeedLCGMatchesSchrage(t *testing.T) {
	schrage := func(x int32) int32 {
		const a, q, r = 48271, 44488, 3399
		hi := x / q
		lo := x % q
		x = a*lo - r*hi
		if x < 0 {
			x += int32max
		}
		return x
	}
	for _, start := range []uint64{1, 2, 48270, 48271, 44488, int32max - 1, 89482311} {
		x, y := start, int32(start)
		for i := 0; i < 5000; i++ {
			x = seedLCG(x)
			y = schrage(y)
			if x != uint64(y) {
				t.Fatalf("start %d step %d: seedLCG %d != schrage %d", start, i, x, y)
			}
		}
	}
}

// TestSourceCloneIndependence pins Clone semantics: the clone continues the
// parent's exact stream, and the two never influence each other.
func TestSourceCloneIndependence(t *testing.T) {
	s := New(9)
	for i := 0; i < 500; i++ {
		s.Float64()
		s.Normal(0, 1)
	}
	c := s.Clone()
	// Identical continuation.
	var sv, cv [200]float64
	for i := range sv {
		sv[i] = s.Normal(0, 1)
	}
	for i := range cv {
		cv[i] = c.Normal(0, 1)
	}
	if sv != cv {
		t.Fatal("clone diverged from parent's continuation")
	}
	// Independence: burning the parent must not move the clone.
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	d := c.Clone()
	if g, w := c.Uint64(), d.Uint64(); g != w {
		t.Fatalf("clone affected by parent draws: %d != %d", g, w)
	}
	if c.seed != 9 {
		t.Fatalf("clone seed = %d, want 9", c.seed)
	}
}

// TestDeriveSeedMatchesFNV locks the hand-rolled Derive hash to hash/fnv,
// which it replaced; derived streams feed every golden digest.
func TestDeriveSeedMatchesFNV(t *testing.T) {
	cases := [][]string{
		nil,
		{""},
		{"host", "42"},
		{"lifecycle"},
		{"ab", "c"},
		{"a", "bc"},
		{"faults", "launch"},
	}
	for _, seed := range rngSeeds {
		s := &Source{seed: seed}
		for _, labels := range cases {
			h := fnv.New64a()
			var buf [8]byte
			for i := 0; i < 8; i++ {
				buf[i] = byte(seed >> (8 * i))
			}
			h.Write(buf[:])
			for _, l := range labels {
				h.Write([]byte{0})
				h.Write([]byte(l))
			}
			if g, w := s.DeriveSeed(labels...), h.Sum64(); g != w {
				t.Fatalf("seed %d labels %q: DeriveSeed %#x != fnv %#x", seed, labels, g, w)
			}
		}
	}
}

// TestDeriveSeedAllocFree budgets the hot Derive hash at zero allocations.
func TestDeriveSeedAllocFree(t *testing.T) {
	s := New(9)
	labels := []string{"host", "123456"}
	if n := testing.AllocsPerRun(100, func() { s.DeriveSeed(labels...) }); n != 0 {
		t.Fatalf("DeriveSeed allocates %v per run, want 0", n)
	}
}

// TestDeriveIndexedSeed pins the indexed form, which seeds every host's
// stream, to DeriveSeed over the decimal label, allocation-free.
func TestDeriveIndexedSeed(t *testing.T) {
	for _, seed := range rngSeeds {
		for _, idx := range []int{0, 1, 9, 10, 124, 99999, -1, -42, math.MaxInt64, math.MinInt64} {
			if g, w := DeriveIndexedSeed(seed, "host", idx), DeriveSeed(seed, "host", strconv.Itoa(idx)); g != w {
				t.Fatalf("seed %d idx %d: DeriveIndexedSeed %#x != DeriveSeed %#x", seed, idx, g, w)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { benchSink ^= DeriveIndexedSeed(9, "host", 123456) }); n != 0 {
		t.Fatalf("DeriveIndexedSeed allocates %v per run, want 0", n)
	}
}

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(uint64(i))
	}
}

// benchSink keeps the compiler from eliding the hashed values.
var benchSink uint64

func BenchmarkMix3(b *testing.B) {
	var x uint64
	for i := 0; i < b.N; i++ {
		x = Mix3(x, uint64(i), 7)
	}
	benchSink = x
}

func BenchmarkDeriveSeed(b *testing.B) {
	s := New(9)
	labels := []string{"host", "123456"}
	b.ReportAllocs()
	b.ResetTimer()
	var x uint64
	for i := 0; i < b.N; i++ {
		x ^= s.DeriveSeed(labels...)
	}
	benchSink = x
}

func BenchmarkStdlibNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rand.New(rand.NewSource(int64(i)))
	}
}

// BenchmarkSeedDraw reseeds a stream and takes a few of its draws: 8 is
// about what Host.materialize's scratch stream takes, 700 reads the whole
// register (its feed wraps after 334 draws, its tap after 607).
func BenchmarkSeedDraw(b *testing.B) {
	for _, draws := range []int{8, 700} {
		b.Run("draws="+strconv.Itoa(draws), func(b *testing.B) {
			s := New(0)
			var x float64
			for i := 0; i < b.N; i++ {
				s.Reseed(uint64(i))
				for j := 0; j < draws; j++ {
					x += s.Float64()
				}
			}
			benchSink += uint64(x)
		})
	}
}

// BenchmarkFloat64 times one uniform draw from a stream whose whole register
// is already seeded: the per-draw cost every Bool and Range pays.
func BenchmarkFloat64(b *testing.B) {
	s := New(9)
	for i := 0; i < 2*rngLen; i++ {
		s.Float64()
	}
	b.ResetTimer()
	var x float64
	for i := 0; i < b.N; i++ {
		x += s.Float64()
	}
	benchSink += uint64(x)
}
