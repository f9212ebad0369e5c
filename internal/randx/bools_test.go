package randx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// channelOdds are the covert channels' per-round odds: RNG and LLC
// background, memory-bus background, and the LLC noise and drop caps.
var channelOdds = []float64{0.008, 0.04, 0.18, 0.45, 0.30}

// haveVector is the kernel selection the package made at start-up.
var haveVector = useVector

// forEachPath runs f once per block-kernel path this CPU has: the Go loops,
// then the vector kernels where the CPU runs them.
func forEachPath(f func(path string)) {
	defer func(v bool) { useVector = v }(useVector)
	for _, vec := range []bool{false, true} {
		if vec && !haveVector {
			continue
		}
		useVector = vec
		path := "go"
		if vec {
			path = "vector"
		}
		f(path)
	}
}

// checkBools runs CountBools(n, p) on a clone of base and n Bool(p) calls
// on another clone, and fails unless the counts and the streams agree.
func checkBools(t *testing.T, base *Source, n int, p float64, what string) {
	t.Helper()
	got, want := base.Clone(), base.Clone()
	hits := 0
	for r := 0; r < n; r++ {
		if want.Bool(p) {
			hits++
		}
	}
	if c := got.CountBools(n, BoolThreshold(p)); c != hits {
		t.Fatalf("%s n %d p %v: CountBools %d, Bool loop %d", what, n, p, c, hits)
	}
	sameNext(t, got, want)
}

// checkPairs is checkBools for CountBoolPairs(n, p, q).
func checkPairs(t *testing.T, base *Source, n int, p, q float64, what string) {
	t.Helper()
	got, want := base.Clone(), base.Clone()
	var hp, hq, both int
	for r := 0; r < n; r++ {
		a, b := b2i(want.Bool(p)), b2i(want.Bool(q))
		hp, hq, both = hp+a, hq+b, both+a&b
	}
	gp, gq, gb := got.CountBoolPairs(n, BoolThreshold(p), BoolThreshold(q))
	if gp != hp || gq != hq || gb != both {
		t.Fatalf("%s n %d p %v q %v: CountBoolPairs %d %d %d, Bool loop %d %d %d", what, n, p, q, gp, gq, gb, hp, hq, both)
	}
	sameNext(t, got, want)
}

// TestCountBoolsMatchesBoolLoop pins the block kernels to the per-draw path
// they replace: for every block length up to past one register wrap, from a
// fresh stream, from one whose feed is about to wrap and from one whose
// next run starts on an odd draw, the counts must equal a Bool loop's and
// both streams must end in the same state.
func TestCountBoolsMatchesBoolLoop(t *testing.T) {
	forEachPath(func(path string) {
		for _, skip := range []int{0, 300, 331} {
			base := New(9)
			for i := 0; i < skip; i++ {
				base.Float64()
			}
			for n := 0; n <= 320; n++ {
				for i, p := range channelOdds {
					q := channelOdds[(i+3)%len(channelOdds)]
					what := fmt.Sprintf("%s skip %d", path, skip)
					checkBools(t, base, n, p, what)
					checkPairs(t, base, n, p, q, what)
				}
			}
		}
	})
}

// sameNext fails unless the two sources sit at the same stream position.
// Each is seeded whole first: the kernel and the Bool loop may leave their
// fill marks at different words.
func sameNext(t *testing.T, got, want *Source) {
	t.Helper()
	seedWhole(&got.st)
	seedWhole(&want.st)
	if got.st != want.st {
		t.Fatal("kernel and Bool loop left the stream at different positions")
	}
	if g, w := got.Float64(), want.Float64(); g != w {
		t.Fatalf("next draw %v, Bool loop %v", g, w)
	}
}

// plant sets the register so that the k-th next Int63 draw (k ≥ 1, well
// inside one wrap) is x. It seeds the whole register first, or a later
// fill would overwrite the planted words.
func plant(s *Source, k int, x int64) {
	seedWhole(&s.st)
	feed := (int(s.st.feed) - k + 2*rngLen) % rngLen
	tap := (int(s.st.tap) - k + 2*rngLen) % rngLen
	s.st.vec[feed], s.st.vec[tap] = x, 0
}

// TestCountBoolsSkipsRoundedDraws plants draws at the resampling boundary:
// 2⁶³−512 converts to a quotient of exactly 1 and must be skipped, as
// float64 skips it; 2⁶³−513 is the largest draw kept. Each lands on the
// first round's draw and, for the pair shape, on the second draw as well.
func TestCountBoolsSkipsRoundedDraws(t *testing.T) {
	forEachPath(func(path string) {
		for _, x := range []int64{keepBound, keepBound - 1, rngMask} {
			for _, k := range []int{1, 2} {
				base := New(7)
				plant(base, k, x)
				for _, p := range []float64{0.45, 1} {
					checkBools(t, base, 4, p, path)
					checkPairs(t, base, 4, p, 0.30, path)
				}
			}
		}
	})
}

// TestKernelsPlantedRejection plants one rejected draw (a sum at or above
// keepBound) in the first, a middle and the last block of a 60-draw run,
// in the few draws below its blocks, and either side of a run boundary
// where feed wraps. No random stream reaches this path: a draw is rejected
// about once in 2⁵⁴. For the pair kernel the rejection shifts every later
// draw to the other side of its round.
func TestKernelsPlantedRejection(t *testing.T) {
	forEachPath(func(path string) {
		for _, c := range []struct {
			skip, draws int // draws before the run; rounds × draws per round
			at          []int
		}{
			// A fresh register: one run of 62 draws, then one more.
			{0, 62, []int{1, 2, 4, 5, 29, 31, 32, 57, 59, 60, 61, 62}},
			// Feed at word 4: a four-draw run, then the wrap.
			{330, 60, []int{1, 4, 5, 6, 8, 9}},
			// Feed at word 3: the wrap splits the second round.
			{331, 60, []int{2, 3, 4, 5, 7}},
		} {
			for _, k := range c.at {
				base := New(11)
				for i := 0; i < c.skip; i++ {
					base.Float64()
				}
				plant(base, k, keepBound+int64(k))
				what := fmt.Sprintf("%s skip %d draw %d", path, c.skip, k)
				for i, p := range channelOdds {
					q := channelOdds[(i+1)%len(channelOdds)]
					checkBools(t, base, c.draws, p, what)
					checkPairs(t, base, c.draws/2, p, q, what)
				}
			}
		}
	})
}

// FuzzContentionKernels runs both block kernels, with single draws
// interleaved, on every path this CPU has and checks each against n calls
// of Bool and the register the calls leave. n up to 1,299 rounds crosses
// several register wraps.
func FuzzContentionKernels(f *testing.F) {
	f.Add(uint64(9), uint16(0), uint16(60), 0.008, 0.30)
	f.Add(uint64(10), uint16(331), uint16(60), 0.45, 0.30)
	f.Add(uint64(0), uint16(606), uint16(1299), 0.18, 1.0)
	f.Add(uint64(1<<63), uint16(3), uint16(5), 0.0, 0.04)
	f.Fuzz(func(t *testing.T, seed uint64, skip, n uint16, p, q float64) {
		rounds := int(n % 1300)
		forEachPath(func(path string) {
			got, want := New(seed), New(seed)
			for i := 0; i < int(skip%700); i++ {
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("%s: skip draw %d: %v, %v", path, i, g, w)
				}
			}
			hits := 0
			for r := 0; r < rounds; r++ {
				hits += b2i(want.Bool(p))
			}
			if c := got.CountBools(rounds, BoolThreshold(p)); c != hits {
				t.Fatalf("%s: CountBools %d, Bool loop %d", path, c, hits)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("%s: draw after CountBools %v, Bool loop %v", path, g, w)
			}
			var hp, hq, both int
			for r := 0; r < rounds; r++ {
				a, b := b2i(want.Bool(p)), b2i(want.Bool(q))
				hp, hq, both = hp+a, hq+b, both+a&b
			}
			gp, gq, gb := got.CountBoolPairs(rounds, BoolThreshold(p), BoolThreshold(q))
			if gp != hp || gq != hq || gb != both {
				t.Fatalf("%s: CountBoolPairs %d %d %d, Bool loop %d %d %d", path, gp, gq, gb, hp, hq, both)
			}
			sameNext(t, got, want)
		})
	})
}

// checkThreshold verifies t(p) at the draws either side of it: x < t(p)
// must agree with the float comparison Bool makes, for draws float64 keeps.
func checkThreshold(t *testing.T, p float64) {
	t.Helper()
	th := uint64(BoolThreshold(p))
	for _, x := range []uint64{0, th - 1, th} {
		if x >= keepBound {
			continue
		}
		if got, want := x < th, float64(x)/(1<<63) < p; got != want {
			t.Fatalf("p %v (t %d): draw %d gives %v, Bool gives %v", p, th, x, got, want)
		}
	}
}

// TestBoolThresholdSweep checks the closed form across random odds at
// every scale from subnormal to just under 1.
func TestBoolThresholdSweep(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		checkThreshold(t, math.Ldexp(0.5+r.Float64()/2, -r.Intn(1080)))
	}
}

func FuzzBoolThreshold(f *testing.F) {
	for _, p := range []float64{
		0, -1, math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64,
		math.Ldexp(1, -10), 0.008, 0.45, 1 - math.Ldexp(1, -53), 1,
	} {
		f.Add(p)
	}
	f.Fuzz(checkThreshold)
}

// BenchmarkCountBools times the RNG channel's 60 rounds and the LLC
// channel's 60 noise-and-drop pairs on each kernel path.
func BenchmarkCountBools(b *testing.B) {
	rng := BoolThreshold(0.008)
	llcP, llcQ := BoolThreshold(0.45), BoolThreshold(0.30)
	forEachPath(func(path string) {
		b.Run("rng-60x0.008/"+path, func(b *testing.B) {
			s := New(9)
			for i := 0; i < b.N; i++ {
				benchSink += uint64(s.CountBools(60, rng))
			}
		})
		b.Run("llc-60-pairs-0.45x0.30/"+path, func(b *testing.B) {
			s := New(9)
			for i := 0; i < b.N; i++ {
				_, _, both := s.CountBoolPairs(60, llcP, llcQ)
				benchSink += uint64(both)
			}
		})
	})
}
