package randx

import (
	"math"
	"math/rand"
	"testing"
)

// channelOdds are the covert channels' per-round odds: RNG and LLC
// background, memory-bus background, and the LLC noise and drop caps.
var channelOdds = []float64{0.008, 0.04, 0.18, 0.45, 0.30}

// TestCountBoolsMatchesBoolLoop pins the block kernel to the per-draw path
// it replaces: for every block length up to past one register wrap, from a
// fresh stream and from one whose feed is about to wrap, the class counts
// must equal a Bool loop's and both streams must end in the same state.
func TestCountBoolsMatchesBoolLoop(t *testing.T) {
	for _, skip := range []int{0, 300} {
		base := New(9)
		for i := 0; i < skip; i++ {
			base.Float64()
		}
		for n := 0; n <= 320; n++ {
			for i, p := range channelOdds {
				q := channelOdds[(i+3)%len(channelOdds)]

				got, want := base.Clone(), base.Clone()
				hits := 0
				for r := 0; r < n; r++ {
					if want.Bool(p) {
						hits++
					}
				}
				if c := got.CountBools(n, p); c != hits {
					t.Fatalf("skip %d n %d p %v: CountBools %d, Bool loop %d", skip, n, p, c, hits)
				}
				sameNext(t, got, want)

				got, want = base.Clone(), base.Clone()
				var classes [2][2]int
				for r := 0; r < n; r++ {
					a, b := want.Bool(p), want.Bool(q)
					classes[b2i(a)][b2i(b)]++
				}
				if c := got.CountBoolPairs(n, p, q); c != classes {
					t.Fatalf("skip %d n %d p %v q %v: CountBoolPairs %v, Bool loop %v", skip, n, p, q, c, classes)
				}
				sameNext(t, got, want)
			}
		}
	}
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
	for _, x := range []int64{keepBound, keepBound - 1, rngMask} {
		for _, k := range []int{1, 2} {
			base := New(7)
			plant(base, k, x)
			for _, p := range []float64{0.45, 1} {
				got, want := base.Clone(), base.Clone()
				hits := 0
				for r := 0; r < 4; r++ {
					if want.Bool(p) {
						hits++
					}
				}
				if c := got.CountBools(4, p); c != hits {
					t.Fatalf("x %d draw %d p %v: CountBools %d, Bool loop %d", x, k, p, c, hits)
				}
				sameNext(t, got, want)

				got, want = base.Clone(), base.Clone()
				var classes [2][2]int
				for r := 0; r < 4; r++ {
					a, b := want.Bool(p), want.Bool(0.30)
					classes[b2i(a)][b2i(b)]++
				}
				if c := got.CountBoolPairs(4, p, 0.30); c != classes {
					t.Fatalf("x %d draw %d p %v: CountBoolPairs %v, Bool loop %v", x, k, p, c, classes)
				}
				sameNext(t, got, want)
			}
		}
	}
}

// checkThreshold verifies t(p) at the draws either side of it: x < t(p)
// must agree with the float comparison Bool makes, for draws float64 keeps.
func checkThreshold(t *testing.T, p float64) {
	t.Helper()
	th := boolThreshold(p)
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

func BenchmarkCountBools(b *testing.B) {
	b.Run("rng-60x0.008", func(b *testing.B) {
		s := New(9)
		for i := 0; i < b.N; i++ {
			benchSink += uint64(s.CountBools(60, 0.008))
		}
	})
	b.Run("llc-60-pairs-0.45x0.30", func(b *testing.B) {
		s := New(9)
		for i := 0; i < b.N; i++ {
			benchSink += uint64(s.CountBoolPairs(60, 0.45, 0.30)[1][1])
		}
	})
}
