package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile: a tail read from fewer is one outlier, not a percentile.
const tailBeyond = 10

// median returns the middle value of xs, the mean of the two middle
// values for an even count, and 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has tailBeyond
// samples above it, and that percentile (0..100). ok is false when xs
// has too few samples for any such percentile.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	rank := n - tailBeyond - 1
	return sortedCopy(xs)[rank], 100 * float64(rank+1) / float64(n), true
}

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1). ok is
// false when fewer than tailBeyond samples lie above it, so a p99 is
// only reported from at least 1000 samples.
func quantile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank > n-1 {
		rank = n - 1
	}
	return sortedCopy(xs)[rank], n-1-rank >= tailBeyond
}

// geomean returns the geometric mean of xs (all positive), and 0 for no
// samples. Over a mix of jobs whose latencies differ by orders of
// magnitude it weighs every job alike, where a median would report
// whichever job type happens to sit in the middle.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := 0.0
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns num/den, and 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetric rejects a metric whose name or unit the result format
// does not allow, or whose value is not a finite number.
func checkMetric(name, unit string, v float64) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("metric name %q: want 1-64 of [A-Za-z0-9_.-], starting with a letter or digit", name)
	}
	if !unitRE.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q: want 1-16 of [A-Za-z0-9_/%%.-]", name, unit)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s: value %v is not finite", name, v)
	}
	return nil
}
