package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSumMean(t *testing.T) {
	cases := []struct {
		in        []float64
		sum, mean float64
	}{
		{nil, 0, 0},
		{[]float64{}, 0, 0},
		{[]float64{5}, 5, 5},
		{[]float64{1, 2, 3, 4}, 10, 2.5},
		{[]float64{-1, 1}, 0, 0},
	}
	for _, c := range cases {
		if got := Sum(c.in); got != c.sum {
			t.Errorf("Sum(%v) = %v, want %v", c.in, got, c.sum)
		}
		if got := Mean(c.in); got != c.mean {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.mean)
		}
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := StdDev([]float64{3, 3, 3}); got != 0 {
		t.Errorf("StdDev of constant = %v, want 0", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	if _, err := Min(nil); err == nil {
		t.Error("Min(nil) should error")
	}
	if _, err := Max(nil); err == nil {
		t.Error("Max(nil) should error")
	}
	xs := []float64{3, -1, 7, 0}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Errorf("Min = %v (%v), want -1", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Errorf("Max = %v (%v), want 7", mx, err)
	}
	if MustMax(xs) != 7 || MustMin(xs) != -1 {
		t.Error("MustMax/MustMin disagree with Max/Min")
	}
}

func TestMustMaxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMax(nil) should panic")
		}
	}()
	MustMax(nil)
}

func TestMinMaxRatio(t *testing.T) {
	if got := MinMaxRatio(nil); got != 1 {
		t.Errorf("MinMaxRatio(nil) = %v, want 1", got)
	}
	if got := MinMaxRatio([]float64{0, 0}); got != 0 {
		t.Errorf("MinMaxRatio zeros = %v, want 0", got)
	}
	if got := MinMaxRatio([]float64{2, 4}); got != 0.5 {
		t.Errorf("MinMaxRatio = %v, want 0.5", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {-5, 1}, {105, 5},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil || !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v (%v), want %v", c.p, got, err, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile(nil) should error")
	}
}

func TestWeightedMean(t *testing.T) {
	if got := WeightedMean([]float64{10, 20}, []float64{1, 3}); !almostEqual(got, 17.5, 1e-12) {
		t.Errorf("WeightedMean = %v, want 17.5", got)
	}
	if got := WeightedMean([]float64{10, 20}, []float64{0, 0}); got != 0 {
		t.Errorf("WeightedMean zero weights = %v, want 0", got)
	}
}

func TestWeightedMeanPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WeightedMean length mismatch should panic")
		}
	}()
	WeightedMean([]float64{1}, []float64{1, 2})
}

// Property: variance is non-negative and mean lies within [min, max].
func TestStatsProperties(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		v := Variance(clean)
		m := Mean(clean)
		mn, mx := MustMin(clean), MustMax(clean)
		return v >= 0 && m >= mn-1e-6*math.Abs(mn)-1e-6 && m <= mx+1e-6*math.Abs(mx)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
