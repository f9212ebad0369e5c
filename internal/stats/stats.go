// Package stats provides the small statistical toolkit the reproduction
// needs: descriptive statistics, simple linear regression with the Pearson
// r-value (used to show that T_boot drifts linearly, §4.4.2), and empirical
// CDFs (Fig. 5).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when an estimator needs more samples than
// it was given.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 with fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest value in xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It panics on an empty slice or a p
// outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic("stats: percentile out of range")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Regression is the result of a simple least-squares linear fit y = a + bx.
type Regression struct {
	Slope     float64 // b
	Intercept float64 // a
	R         float64 // Pearson correlation coefficient
	N         int     // number of points fitted
}

// LinearFit fits y = a + bx by least squares and reports the Pearson r-value.
// It returns ErrInsufficientData with fewer than two points or when all x
// values are identical.
func LinearFit(x, y []float64) (Regression, error) {
	if len(x) != len(y) {
		return Regression{}, errors.New("stats: LinearFit length mismatch")
	}
	n := float64(len(x))
	if len(x) < 2 {
		return Regression{}, ErrInsufficientData
	}
	mx, my := Mean(x), Mean(y)
	var sxx, syy, sxy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 {
		return Regression{}, ErrInsufficientData
	}
	slope := sxy / sxx
	r := 1.0
	if syy > 0 {
		r = sxy / math.Sqrt(sxx*syy)
	}
	return Regression{
		Slope:     slope,
		Intercept: my - slope*mx,
		R:         r,
		N:         int(n),
	}, nil
}

// Predict evaluates the fitted line at x.
func (r Regression) Predict(x float64) float64 { return r.Intercept + r.Slope*x }

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs.
func NewCDF(xs []float64) CDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return CDF{sorted: sorted}
}

// At returns P(X <= x) under the empirical distribution, in [0, 1].
func (c CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Number of samples <= x.
	n := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(c.sorted))
}
