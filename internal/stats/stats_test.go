package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Errorf("StdDev = %v, want 2", s)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty-slice mean/variance should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max wrong: %v %v", Min(xs), Max(xs))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMedianUnsortedInput(t *testing.T) {
	if m := Median([]float64{9, 1, 5}); m != 5 {
		t.Errorf("Median = %v, want 5", m)
	}
}

func TestLinearFitExact(t *testing.T) {
	// y = 3 + 2x, perfectly linear.
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{3, 5, 7, 9, 11}
	fit, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2, 1e-12) || !almostEq(fit.Intercept, 3, 1e-12) {
		t.Errorf("fit = %+v, want slope 2 intercept 3", fit)
	}
	if !almostEq(fit.R, 1, 1e-12) {
		t.Errorf("r = %v, want 1", fit.R)
	}
	if got := fit.Predict(10); !almostEq(got, 23, 1e-12) {
		t.Errorf("Predict(10) = %v, want 23", got)
	}
}

func TestLinearFitNegativeCorrelation(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{10, 8, 6, 4}
	fit, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.R, -1, 1e-12) {
		t.Errorf("r = %v, want -1", fit.R)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should fail")
	}
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x should fail")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
}

// Property: fitting y = a + bx with noise-free data recovers a and b for any
// reasonable a, b.
func TestLinearFitRecoveryProperty(t *testing.T) {
	f := func(aRaw, bRaw int16) bool {
		a := float64(aRaw) / 100
		b := float64(bRaw) / 100
		var x, y []float64
		for i := 0; i < 10; i++ {
			x = append(x, float64(i))
			y = append(y, a+b*float64(i))
		}
		fit, err := LinearFit(x, y)
		if err != nil {
			return false
		}
		return almostEq(fit.Slope, b, 1e-9) && almostEq(fit.Intercept, a, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); !almostEq(got, tc.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

// Property: At is monotone nondecreasing and bounded in [0, 1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(samples []float64, probe1, probe2 float64) bool {
		if len(samples) == 0 {
			return true
		}
		c := NewCDF(samples)
		lo, hi := probe1, probe2
		if lo > hi {
			lo, hi = hi, lo
		}
		a, b := c.At(lo), c.At(hi)
		return a >= 0 && b <= 1 && a <= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
