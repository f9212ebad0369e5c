// Package metrics implements pair-counting clustering metrics used to score
// host fingerprints against ground-truth co-location (§4.4.1 of the paper):
// precision, recall, and the Fowlkes–Mallows index (FMI).
//
// A "positive" is a pair of instances with matching fingerprints; it is true
// if the pair is really co-located on the same host. Counting is done through
// a contingency table, which is O(N + K²) in the worst case rather than the
// O(N²) of explicit pair enumeration, so scoring 800-instance launches is
// cheap.
package metrics

import "math"

// PairCounts holds the four pair-classification counters over all unordered
// instance pairs.
type PairCounts struct {
	TP int64 // matching fingerprints, truly co-located
	FP int64 // matching fingerprints, different hosts
	TN int64 // different fingerprints, different hosts
	FN int64 // different fingerprints, truly co-located
}

// choose2 returns C(n, 2).
func choose2(n int64) int64 { return n * (n - 1) / 2 }

// CountPairs classifies every unordered pair of elements given a predicted
// labeling and a true labeling. The two slices must have equal length; the
// label values themselves carry no meaning beyond equality. It panics on a
// length mismatch because the inputs come from the same instance list and a
// mismatch is always a caller bug.
func CountPairs[L1, L2 comparable](predicted []L1, truth []L2) PairCounts {
	if len(predicted) != len(truth) {
		panic("metrics: CountPairs length mismatch")
	}
	n := int64(len(predicted))

	// Contingency table: cell[(p,t)] = #elements with predicted label p and
	// true label t.
	type key struct {
		p L1
		t L2
	}
	cells := make(map[key]int64)
	predSizes := make(map[L1]int64)
	truthSizes := make(map[L2]int64)
	for i := range predicted {
		cells[key{predicted[i], truth[i]}]++
		predSizes[predicted[i]]++
		truthSizes[truth[i]]++
	}

	var tp int64
	for _, c := range cells {
		tp += choose2(c)
	}
	var predPos int64 // pairs with matching predicted label
	for _, c := range predSizes {
		predPos += choose2(c)
	}
	var truthPos int64 // pairs truly co-located
	for _, c := range truthSizes {
		truthPos += choose2(c)
	}

	fp := predPos - tp
	fn := truthPos - tp
	tn := choose2(n) - tp - fp - fn
	return PairCounts{TP: tp, FP: fp, TN: tn, FN: fn}
}

// Precision returns TP/(TP+FP). With no positive predictions it returns 1:
// a labeling that predicts no co-location makes no false claims.
func (c PairCounts) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN). With no truly co-located pairs it returns 1.
func (c PairCounts) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FMI returns the Fowlkes–Mallows index, the geometric mean of precision and
// recall. It ranges over [0, 1]; 1 means the predicted clustering matches the
// ground truth perfectly.
func (c PairCounts) FMI() float64 {
	return math.Sqrt(c.Precision() * c.Recall())
}

// Perfect reports whether the clustering has no false positives and no false
// negatives.
func (c PairCounts) Perfect() bool { return c.FP == 0 && c.FN == 0 }

// Score bundles the three headline numbers for reporting.
type Score struct {
	Precision float64
	Recall    float64
	FMI       float64
}

// ScoreOf computes the Score for a predicted labeling against ground truth.
func ScoreOf[L1, L2 comparable](predicted []L1, truth []L2) Score {
	c := CountPairs(predicted, truth)
	return Score{Precision: c.Precision(), Recall: c.Recall(), FMI: c.FMI()}
}
