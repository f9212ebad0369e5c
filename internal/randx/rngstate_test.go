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
	// The next Uint64 sums the words just below feed and tap.
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
