package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveCounts is the O(N²) reference implementation.
func naiveCounts(predicted, truth []int) PairCounts {
	var c PairCounts
	for i := 0; i < len(predicted); i++ {
		for j := i + 1; j < len(predicted); j++ {
			samePred := predicted[i] == predicted[j]
			sameTruth := truth[i] == truth[j]
			switch {
			case samePred && sameTruth:
				c.TP++
			case samePred && !sameTruth:
				c.FP++
			case !samePred && sameTruth:
				c.FN++
			default:
				c.TN++
			}
		}
	}
	return c
}

func TestPerfectClustering(t *testing.T) {
	pred := []string{"a", "a", "b", "b", "c"}
	truth := []int{1, 1, 2, 2, 3}
	c := CountPairs(pred, truth)
	if !c.Perfect() {
		t.Fatalf("perfect clustering misclassified: %+v", c)
	}
	if c.TP != 2 || c.TN != 8 {
		t.Errorf("counts = %+v, want TP=2 TN=8", c)
	}
	if c.FMI() != 1 {
		t.Errorf("FMI = %v, want 1", c.FMI())
	}
}

func TestAllMergedPrediction(t *testing.T) {
	// Fingerprint collapses everything into one cluster: recall perfect,
	// precision poor.
	pred := []int{0, 0, 0, 0}
	truth := []int{1, 1, 2, 2}
	c := CountPairs(pred, truth)
	if c.Recall() != 1 {
		t.Errorf("recall = %v, want 1", c.Recall())
	}
	if want := 2.0 / 6.0; c.Precision() != want {
		t.Errorf("precision = %v, want %v", c.Precision(), want)
	}
}

func TestAllSplitPrediction(t *testing.T) {
	// Every instance gets a unique fingerprint: precision is vacuously 1,
	// recall is 0.
	pred := []int{0, 1, 2, 3}
	truth := []int{1, 1, 1, 1}
	c := CountPairs(pred, truth)
	if c.Precision() != 1 {
		t.Errorf("precision = %v, want 1 (no positive predictions)", c.Precision())
	}
	if c.Recall() != 0 {
		t.Errorf("recall = %v, want 0", c.Recall())
	}
	if c.FMI() != 0 {
		t.Errorf("FMI = %v, want 0", c.FMI())
	}
}

func TestKnownFMI(t *testing.T) {
	// Hand-computed example: 6 elements.
	pred := []int{0, 0, 0, 1, 1, 1}
	truth := []int{0, 0, 1, 1, 1, 0}
	c := CountPairs(pred, truth)
	// pred pairs: 3+3=6 positives. truth clusters {0,0,x(5)}: sizes 3,3 → 6.
	// TP: cells (0,0)=2,(0,1)=1,(1,1)=2,(1,0)=1 → C(2,2)*2 = 2.
	if c.TP != 2 || c.FP != 4 || c.FN != 4 {
		t.Fatalf("counts = %+v", c)
	}
	wantFMI := math.Sqrt((2.0 / 6.0) * (2.0 / 6.0))
	if math.Abs(c.FMI()-wantFMI) > 1e-12 {
		t.Errorf("FMI = %v, want %v", c.FMI(), wantFMI)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	CountPairs([]int{1, 2}, []int{1})
}

// Property: the contingency-table implementation agrees with the naive O(N²)
// pair enumeration on random labelings.
func TestAgainstNaiveProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%60) + 2
		rng := rand.New(rand.NewSource(seed))
		pred := make([]int, n)
		truth := make([]int, n)
		for i := 0; i < n; i++ {
			pred[i] = rng.Intn(5)
			truth[i] = rng.Intn(5)
		}
		return CountPairs(pred, truth) == naiveCounts(pred, truth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: metrics are always within [0, 1] and FMI is the geometric mean of
// precision and recall.
func TestMetricBoundsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		rng := rand.New(rand.NewSource(seed))
		pred := make([]int, n)
		truth := make([]int, n)
		for i := 0; i < n; i++ {
			pred[i] = rng.Intn(4)
			truth[i] = rng.Intn(4)
		}
		c := CountPairs(pred, truth)
		p, r, f1 := c.Precision(), c.Recall(), c.FMI()
		if p < 0 || p > 1 || r < 0 || r > 1 || f1 < 0 || f1 > 1 {
			return false
		}
		return math.Abs(f1-math.Sqrt(p*r)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScoreOf(t *testing.T) {
	pred := []int{0, 0, 1, 1}
	truth := []int{0, 0, 1, 1}
	s := ScoreOf(pred, truth)
	if s.Precision != 1 || s.Recall != 1 || s.FMI != 1 {
		t.Errorf("ScoreOf perfect clustering = %+v", s)
	}
}
