package workload

import (
	"fmt"
	"math"
	"testing"

	"obm/internal/stats"
)

func TestGenerateMomentMatch(t *testing.T) {
	spec := GenSpec{
		Name: "gen", NumApps: 4, ThreadsPer: 16,
		Cache: Stats{Mean: 7.0, Std: 9.4},
		Mem:   Stats{Mean: 0.9, Std: 3.1},
		Seed:  1,
	}
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	rs := w.ComputeRateStats()
	check := func(name string, got, want float64) {
		if want == 0 {
			if got != 0 {
				t.Errorf("%s = %v, want 0", name, got)
			}
			return
		}
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("%s = %v, want %v (within 1%%)", name, got, want)
		}
	}
	check("cache mean", rs.Cache.Mean, spec.Cache.Mean)
	check("cache std", rs.Cache.Std, spec.Cache.Std)
	check("mem mean", rs.Mem.Mean, spec.Mem.Mean)
	check("mem std", rs.Mem.Std, spec.Mem.Std)
}

func TestGenerateDeterminism(t *testing.T) {
	spec := GenSpec{Name: "d", NumApps: 2, ThreadsPer: 4,
		Cache: Stats{Mean: 5, Std: 5}, Mem: Stats{Mean: 1, Std: 1}, Seed: 42}
	a := MustGenerate(spec)
	b := MustGenerate(spec)
	at, bt := a.Threads(), b.Threads()
	for i := range at {
		if at[i] != bt[i] {
			t.Fatal("same spec+seed must produce identical workloads")
		}
	}
	spec.Seed = 43
	c := MustGenerate(spec)
	diff := false
	for i, th := range c.Threads() {
		if th != at[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seed produced identical workload")
	}
}

func TestGenerateAppsSortedByRate(t *testing.T) {
	spec := GenSpec{Name: "s", NumApps: 4, ThreadsPer: 16,
		Cache: Stats{Mean: 7, Std: 9}, Mem: Stats{Mean: 1, Std: 3}, Seed: 7}
	w := MustGenerate(spec)
	for i := 1; i < len(w.Apps); i++ {
		if w.Apps[i-1].TotalRate() > w.Apps[i].TotalRate() {
			t.Fatal("applications not sorted ascending by total rate")
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenSpec{
		{NumApps: 0, ThreadsPer: 4, Cache: Stats{Mean: 1}},
		{NumApps: 4, ThreadsPer: 0, Cache: Stats{Mean: 1}},
		{NumApps: 4, ThreadsPer: 4, Cache: Stats{Mean: 0}},
		{NumApps: 4, ThreadsPer: 4, Cache: Stats{Mean: 1, Std: -1}},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestGenerateNonNegativeRates(t *testing.T) {
	// Extreme spread: clamping must keep everything non-negative.
	spec := GenSpec{Name: "x", NumApps: 4, ThreadsPer: 16,
		Cache: Stats{Mean: 2, Std: 14}, Mem: Stats{Mean: 0.4, Std: 2.8}, Seed: 3}
	w := MustGenerate(spec)
	for _, th := range w.Threads() {
		if th.CacheRate < 0 || th.MemRate < 0 {
			t.Fatalf("negative rate generated: %+v", th)
		}
	}
}

func TestGenerateZeroStd(t *testing.T) {
	spec := GenSpec{Name: "z", NumApps: 2, ThreadsPer: 2,
		Cache: Stats{Mean: 3, Std: 0}, Mem: Stats{Mean: 1, Std: 0}, Seed: 1}
	w := MustGenerate(spec)
	for _, th := range w.Threads() {
		if th.CacheRate != 3 || th.MemRate != 1 {
			t.Fatalf("zero-std workload not constant: %+v", th)
		}
	}
}

// momentCorrectReference is momentCorrect as it was before it kept its
// moments between steps: every mean and standard deviation is
// recomputed from xs where it is read. TestMomentCorrectMatchesReference
// holds the current version bit-equal to it.
func momentCorrectReference(xs []float64, target Stats, ub []float64) {
	if len(xs) == 0 {
		return
	}
	clamp := func(i int, v float64) float64 {
		if v < 0 {
			v = 0
		}
		if ub != nil && v > ub[i] {
			v = ub[i]
		}
		return v
	}
	if target.Std == 0 {
		for i := range xs {
			xs[i] = clamp(i, target.Mean)
		}
		return
	}
	aim := target
	for iter := 0; iter < 500; iter++ {
		m := stats.Mean(xs)
		s := stats.StdDev(xs)
		if s == 0 {
			xs[0] = clamp(0, xs[0]+target.Std)
			if stats.StdDev(xs) == 0 {
				return
			}
			continue
		}
		scale := aim.Std / s
		for i := range xs {
			xs[i] = clamp(i, aim.Mean+(xs[i]-m)*scale)
		}
		if closeEnoughReference(xs, target) {
			return
		}
		aim.Mean += 0.5 * (target.Mean - stats.Mean(xs))
		aim.Std += 0.5 * (target.Std - stats.StdDev(xs))
		if aim.Mean < 0 {
			aim.Mean = 0
		}
		if aim.Std < 0 {
			aim.Std = 0
		}
	}
}

func closeEnoughReference(xs []float64, target Stats) bool {
	const tol = 1e-9
	m := stats.Mean(xs)
	s := stats.StdDev(xs)
	return math.Abs(m-target.Mean) <= tol*math.Max(1, target.Mean) &&
		math.Abs(s-target.Std) <= tol*math.Max(1, target.Std)
}

// TestMomentCorrectMatchesReference runs momentCorrect and the reference
// on copies of the same input and requires bit-equal output: on
// Generate's own raw vectors (the unbounded cache call, then the
// ub-bounded memory call) for every Table 3 target and 200 seeds, and
// on the zero-std and degenerate edge cases.
func TestMomentCorrectMatchesReference(t *testing.T) {
	check := func(name string, xs []float64, target Stats, ub []float64) []float64 {
		t.Helper()
		got := append([]float64(nil), xs...)
		want := append([]float64(nil), xs...)
		momentCorrect(got, target, ub)
		momentCorrectReference(want, target, ub)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: xs[%d] = %v, reference %v", name, i, got[i], want[i])
			}
		}
		return got
	}
	generate := func(name string, spec GenSpec) {
		t.Helper()
		cache, mem := drawRates(spec)
		cache = check(name+"/cache", cache, spec.Cache, nil)
		ub := make([]float64, len(cache))
		for i := range ub {
			ub[i] = 0.5 * cache[i]
		}
		check(name+"/mem", mem, spec.Mem, ub)
	}
	names := ConfigNames()
	for _, name := range names {
		target := Table3[name]
		generate(name, GenSpec{Name: name, NumApps: 4, ThreadsPer: 16,
			Cache: target.Cache, Mem: target.Mem, Seed: paperConfigSeed(name)})
	}
	for seed := uint64(0); seed < 200; seed++ {
		name := names[seed%uint64(len(names))]
		target := Table3[name]
		generate(fmt.Sprintf("%s seed %d", name, seed), GenSpec{Name: name, NumApps: 4, ThreadsPer: 16,
			Cache: target.Cache, Mem: target.Mem, Seed: seed})
	}
	check("zero std", []float64{0.5, 3, 9}, Stats{Mean: 2, Std: 0}, []float64{1, 4, 4})
	check("all equal", []float64{2, 2, 2, 2}, Stats{Mean: 5, Std: 1.5}, nil)
	check("all equal, no room", []float64{1, 1, 1}, Stats{Mean: 1, Std: 1}, []float64{1, 1, 1})
}
