package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed sources diverged at draw %d", i)
		}
	}
}

func TestDeriveStable(t *testing.T) {
	root := New(7)
	a := root.Derive("host", "3")
	b := root.Derive("host", "3")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("derived streams with identical labels diverged at draw %d", i)
		}
	}
}

func TestDeriveIndependent(t *testing.T) {
	root := New(7)
	a := root.Derive("host", "3")
	b := root.Derive("host", "4")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("derived streams with different labels collided %d/100 times", same)
	}
}

func TestDeriveSeparator(t *testing.T) {
	root := New(7)
	a := root.Derive("ab", "c")
	b := root.Derive("a", "bc")
	if a.seed == b.seed {
		t.Fatal("label concatenation ambiguity: (ab,c) and (a,bc) derived the same seed")
	}
}

func TestDeriveDoesNotConsumeParent(t *testing.T) {
	a := New(42)
	b := New(42)
	a.Derive("x")
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("Derive consumed randomness from the parent stream")
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(1)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %.4f, want ~10", mean)
	}
	if math.Abs(std-3) > 0.05 {
		t.Errorf("normal stddev = %.4f, want ~3", std)
	}
}

func TestLaplaceMoments(t *testing.T) {
	s := New(2)
	const n = 200000
	const b = 2.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Laplace(5, b)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("laplace mean = %.4f, want ~5", mean)
	}
	want := 2 * b * b // Var(Laplace) = 2b²
	if math.Abs(variance-want)/want > 0.05 {
		t.Errorf("laplace variance = %.4f, want ~%.1f", variance, want)
	}
}

func TestSampleDistinct(t *testing.T) {
	s := New(4)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 1)
		out := s.Sample(n, k)
		if len(out) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range out {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleFull(t *testing.T) {
	s := New(5)
	out := s.Sample(10, 10)
	seen := make(map[int]bool)
	for _, v := range out {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Sample(10,10) returned %d distinct values, want 10", len(seen))
	}
}

func TestWeightedIndex(t *testing.T) {
	s := New(8)
	weights := []float64{0, 1, 3, 0}
	counts := make([]int, len(weights))
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.WeightedIndex(weights)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight indices chosen: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.8 || ratio > 3.2 {
		t.Errorf("weight ratio = %.3f, want ~3", ratio)
	}
}

func TestWeightedIndexPanics(t *testing.T) {
	s := New(9)
	for name, weights := range map[string][]float64{
		"empty":    {},
		"zero":     {0, 0},
		"negative": {1, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WeightedIndex(%s) did not panic", name)
				}
			}()
			s.WeightedIndex(weights)
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(10)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("Perm repeated value %d", v)
		}
		seen[v] = true
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if p < 0.24 || p > 0.26 {
		t.Errorf("Bool(0.25) frequency = %.4f", p)
	}
}

func TestMix3Deterministic(t *testing.T) {
	a := Mix3(1, 2, 3)
	if a != Mix3(1, 2, 3) {
		t.Fatal("Mix3 is not a pure function")
	}
	// Any single-word change must change the output.
	for _, other := range []uint64{Mix3(2, 2, 3), Mix3(1, 3, 3), Mix3(1, 2, 4)} {
		if other == a {
			t.Fatalf("Mix3 collision on adjacent inputs: %x", a)
		}
	}
}

func TestMix3UnitUniform(t *testing.T) {
	// The (seed, id, draw#) addressing scheme the event kernel uses must give
	// roughly uniform units per id: check mean and range over many draws.
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		u := Unit(Mix3(0xfeed, uint64(i), 0))
		if u < 0 || u >= 1 {
			t.Fatalf("Unit out of [0,1): %v", u)
		}
		sum += u
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Errorf("Unit(Mix3) mean = %.4f, want ~0.5", mean)
	}
}
