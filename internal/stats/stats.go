// Package stats provides small, dependency-free statistics helpers and a
// deterministic random source used throughout the repository. Every
// stochastic component (workload generation, Monte-Carlo mapping, simulated
// annealing, the NoC traffic injectors) draws from a stats.Rand seeded
// explicitly, so all experiments are reproducible bit-for-bit.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reducers that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Sum returns the sum of xs. Sum of an empty slice is 0.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs. Mean of an empty slice is 0.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by len(xs)).
// The paper reports population statistics over the fixed thread set of a
// configuration, so the population form is the right one here.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
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
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs, or an error if xs is empty.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs, or an error if xs is empty.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// MustMax is Max for inputs known to be non-empty; it panics on empty input.
func MustMax(xs []float64) float64 {
	m, err := Max(xs)
	if err != nil {
		panic(err)
	}
	return m
}

// MustMin is Min for inputs known to be non-empty; it panics on empty input.
func MustMin(xs []float64) float64 {
	m, err := Min(xs)
	if err != nil {
		panic(err)
	}
	return m
}

// MinMaxRatio returns min(xs)/max(xs), one of the latency-balance metrics
// discussed (and rejected as an objective) in Section III.A of the paper.
// It returns 1 for an empty slice and 0 when the maximum is 0.
func MinMaxRatio(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	mn := MustMin(xs)
	mx := MustMax(xs)
	if mx == 0 {
		return 0
	}
	return mn / mx
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns an error on empty input.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if p <= 0 {
		return s[0], nil
	}
	if p >= 100 {
		return s[len(s)-1], nil
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo], nil
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// WeightedMean returns sum(w_i * x_i) / sum(w_i). It returns 0 when the
// total weight is 0 (the convention used for idle pseudo-applications whose
// request rates are all zero).
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic("stats: WeightedMean length mismatch")
	}
	var num, den float64
	for i := range xs {
		num += ws[i] * xs[i]
		den += ws[i]
	}
	if den == 0 {
		return 0
	}
	return num / den
}
