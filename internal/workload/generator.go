package workload

import (
	"fmt"
	"math"

	"obm/internal/stats"
)

// GenSpec describes the target statistics of a synthetic workload: the
// number of applications, threads per application, and the Table 3-style
// mean/std targets for the flattened cache and memory rate vectors.
type GenSpec struct {
	Name       string
	NumApps    int
	ThreadsPer int
	Cache      Stats // target mean/std of all c_j
	Mem        Stats // target mean/std of all m_j
	Seed       uint64
}

const (
	// appSigma is the lognormal sigma of the per-application intensity
	// multiplier. Each application stands for one benchmark (PARSEC
	// programs differ in network load by orders of magnitude), so most of
	// the rate spread is *between* applications — this is what makes the
	// Global mapper trade one application's latency for another's, the
	// paper's motivating observation.
	appSigma = 1.2
	// threadSigma is the lognormal sigma of within-application thread
	// variation.
	threadSigma = 0.3
)

// Validate reports an error for nonsensical specs.
func (s GenSpec) Validate() error {
	if s.NumApps <= 0 || s.ThreadsPer <= 0 {
		return fmt.Errorf("workload: spec %q: need positive apps/threads, got %dx%d", s.Name, s.NumApps, s.ThreadsPer)
	}
	if s.Cache.Mean <= 0 || s.Mem.Mean < 0 {
		return fmt.Errorf("workload: spec %q: need positive cache mean", s.Name)
	}
	if s.Cache.Std < 0 || s.Mem.Std < 0 {
		return fmt.Errorf("workload: spec %q: negative std target", s.Name)
	}
	return nil
}

// Generate builds a synthetic workload whose flattened cache and memory
// rate vectors match the spec's mean and standard deviation (the paper's
// Table 3 statistics) to within a small tolerance.
//
// Shape: rates are drawn hierarchically — a lognormal intensity
// multiplier per application (benchmarks differ in network load far more
// than threads within one benchmark do) times moderate lognormal
// per-thread variation. This is what lets the Global mapper trade a
// light application's latency for a heavy one's, the paper's motivating
// observation; a flat per-thread draw would make the applications
// statistically identical and hide the imbalance. Memory rates ride on
// cache rates (an L2 miss is first an L2 access) with skew-calibrated
// multiplicative noise and a physical per-thread miss-ratio bound. Both
// vectors are then affinely moment-corrected under their bounds to hit
// the targets.
func Generate(spec GenSpec) (*Workload, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cache, mem := drawRates(spec)
	momentCorrect(cache, spec.Cache, nil)
	// Every memory request is an L2 miss, i.e. a subset of the thread's L2
	// accesses; we bound the per-thread L2 miss ratio at 50%
	// (m_j <= 0.5*c_j), a generous ceiling for PARSEC-class workloads.
	// Beyond keeping the rates physical, the bound caps any application's
	// memory share of traffic at 1/3, so differences in memory intensity
	// remain compensable by tile placement instead of creating an
	// unbalanceable APL floor.
	ub := make([]float64, len(cache))
	for i := range ub {
		ub[i] = 0.5 * cache[i]
	}
	momentCorrect(mem, spec.Mem, ub)

	w := &Workload{Name: spec.Name}
	for a := 0; a < spec.NumApps; a++ {
		app := Application{Name: fmt.Sprintf("%s-app%d", spec.Name, a+1)}
		for t := 0; t < spec.ThreadsPer; t++ {
			idx := a*spec.ThreadsPer + t
			app.Threads = append(app.Threads, Thread{CacheRate: cache[idx], MemRate: mem[idx]})
		}
		w.Apps = append(w.Apps, app)
	}
	w.SortAppsByTotalRate()
	for i := range w.Apps {
		w.Apps[i].Name = fmt.Sprintf("%s-app%d", spec.Name, i+1)
	}
	return w, nil
}

// drawRates draws the raw, uncorrected cache and memory rate vectors of
// spec (validated by the caller): Generate's input to momentCorrect.
func drawRates(spec GenSpec) (cache, mem []float64) {
	rng := stats.NewRand(spec.Seed)
	n := spec.NumApps * spec.ThreadsPer

	// Hierarchical rates: one intensity multiplier per application (the
	// benchmark's character) times per-thread variation within it.
	cache = make([]float64, n)
	for a := 0; a < spec.NumApps; a++ {
		mul := rng.LogNormal(0, appSigma)
		for t := 0; t < spec.ThreadsPer; t++ {
			cache[a*spec.ThreadsPer+t] = mul * rng.LogNormal(0, threadSigma)
		}
	}
	// Memory rates proportional to cache rates with lognormal noise: keeps
	// the paper's observed cache:memory rate ratio per thread while letting
	// the two vectors have their own moments after correction. Table 3's
	// memory rates are substantially more skewed than the cache rates
	// (CV ~3.5 vs ~1.3), so the noise sigma is derived from the target
	// coefficients of variation: for independent lognormals the log-domain
	// variances add, sigma_mem^2 = sigma_cache^2 + sigma_noise^2.
	mem = make([]float64, n)
	ratio := spec.Cache.Mean / math.Max(spec.Mem.Mean, 1e-12)
	noiseSigma := 0.35
	if spec.Cache.Mean > 0 && spec.Mem.Mean > 0 {
		cvC := spec.Cache.Std / spec.Cache.Mean
		cvM := spec.Mem.Std / spec.Mem.Mean
		if extra := math.Log(1+cvM*cvM) - math.Log(1+cvC*cvC); extra > noiseSigma*noiseSigma {
			noiseSigma = math.Sqrt(extra)
		}
	}
	for i := range mem {
		noise := rng.LogNormal(0, noiseSigma)
		mem[i] = cache[i] / ratio * noise
	}
	return cache, mem

}

// MustGenerate is Generate but panics on error; for the fixed paper specs.
func MustGenerate(spec GenSpec) *Workload {
	w, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return w
}

// momentCorrect rescales xs in place so its population mean and std equal
// the target, keeping every value within [0, ub[i]] (ub may be nil for
// unbounded-above). The affine correction can push samples outside the
// bounds when the target std is large; clamping and re-correcting
// converges quickly for heavy-tailed inputs because the clamped mass is
// tiny.
func momentCorrect(xs []float64, target Stats, ub []float64) {
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
	// The clamps bias a plain affine correction (clamping at zero raises
	// the mean; clamping at ub lowers it), so aim for a compensated target
	// that an integral-style update steers until the *achieved* moments
	// match the true target.
	// m and s are always the moments of xs as it stands: computed once
	// here and again after each change to xs, then reused by the
	// convergence test, the aim update and the next correction.
	aim := target
	m, s := stats.Mean(xs), stats.StdDev(xs)
	for iter := 0; iter < 500; iter++ {
		if s == 0 {
			// Degenerate (all-equal) vector: nudge one element to create
			// spread, then continue correcting.
			xs[0] = clamp(0, xs[0]+target.Std)
			m, s = stats.Mean(xs), stats.StdDev(xs)
			if s == 0 {
				return // bounds leave no room for spread
			}
			continue
		}
		scale := aim.Std / s
		for i := range xs {
			xs[i] = clamp(i, aim.Mean+(xs[i]-m)*scale)
		}
		m, s = stats.Mean(xs), stats.StdDev(xs)
		if closeEnough(m, s, target) {
			return
		}
		aim.Mean += 0.5 * (target.Mean - m)
		aim.Std += 0.5 * (target.Std - s)
		if aim.Mean < 0 {
			aim.Mean = 0
		}
		if aim.Std < 0 {
			aim.Std = 0
		}
	}
}

func closeEnough(m, s float64, target Stats) bool {
	const tol = 1e-9
	return math.Abs(m-target.Mean) <= tol*math.Max(1, target.Mean) &&
		math.Abs(s-target.Std) <= tol*math.Max(1, target.Std)
}
