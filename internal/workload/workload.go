// Package workload models the traffic characteristics of the applications
// being mapped: per-thread shared-L2 cache request rates c_j and
// memory-controller request rates m_j (Section III.B of the paper).
//
// The paper gathers these rates from PARSEC 2.0 traces under Simics/GEMS.
// That toolchain (and its traces) is unavailable, so this package
// substitutes a synthetic generator that is moment-matched to the
// statistics the paper publishes for its eight evaluation configurations
// (Table 3): the mean and standard deviation of the cache and memory
// request rates over each configuration's 64 threads. The mapping
// algorithms consume nothing but these per-thread rates, so matching
// their first two moments (and the heavy-tailed shape implied by
// std/mean ratios of 9-15) preserves the behaviour the evaluation
// depends on. See DESIGN.md, substitution 1.
package workload

import (
	"fmt"

	"obm/internal/stats"
)

// Thread holds the two per-thread parameters of the OBM problem.
type Thread struct {
	// CacheRate is the shared-L2 request rate c_j (requests per unit time;
	// the paper's unit is requests per microsecond at 2 GHz).
	CacheRate float64
	// MemRate is the memory-controller request rate m_j.
	MemRate float64
}

// TotalRate returns c_j + m_j, the weight of the thread in APL averaging.
func (t Thread) TotalRate() float64 { return t.CacheRate + t.MemRate }

// Application is a named group of threads mapped as a unit.
type Application struct {
	Name    string
	Threads []Thread
}

// NumThreads returns the number of threads in the application.
func (a *Application) NumThreads() int { return len(a.Threads) }

// TotalRate returns the application's aggregate communication rate.
func (a *Application) TotalRate() float64 {
	var s float64
	for _, t := range a.Threads {
		s += t.TotalRate()
	}
	return s
}

// CacheRates returns the c_j vector of the application.
func (a *Application) CacheRates() []float64 {
	out := make([]float64, len(a.Threads))
	for i, t := range a.Threads {
		out[i] = t.CacheRate
	}
	return out
}

// MemRates returns the m_j vector of the application.
func (a *Application) MemRates() []float64 {
	out := make([]float64, len(a.Threads))
	for i, t := range a.Threads {
		out[i] = t.MemRate
	}
	return out
}

// Workload is an ordered set of applications to be mapped together onto
// one chip. Thread j of the flattened workload follows the paper's
// indexing: application a_i owns threads N_{i-1}+1 .. N_i.
type Workload struct {
	Name string
	Apps []Application
}

// NumThreads returns the total thread count N across all applications.
func (w *Workload) NumThreads() int {
	n := 0
	for i := range w.Apps {
		n += len(w.Apps[i].Threads)
	}
	return n
}

// NumApps returns the number of applications A.
func (w *Workload) NumApps() int { return len(w.Apps) }

// Threads returns the flattened thread list in application order.
func (w *Workload) Threads() []Thread {
	out := make([]Thread, 0, w.NumThreads())
	for i := range w.Apps {
		out = append(out, w.Apps[i].Threads...)
	}
	return out
}

// Boundaries returns the cumulative thread counts N_0..N_A
// (N_0 = 0, N_A = N); application i owns flattened threads
// [Boundaries[i], Boundaries[i+1]).
func (w *Workload) Boundaries() []int {
	b := make([]int, len(w.Apps)+1)
	for i := range w.Apps {
		b[i+1] = b[i] + len(w.Apps[i].Threads)
	}
	return b
}

// AppOfThread returns the application index owning flattened thread j,
// or -1 if j is out of range.
func (w *Workload) AppOfThread(j int) int {
	b := w.Boundaries()
	for i := 0; i < len(w.Apps); i++ {
		if j >= b[i] && j < b[i+1] {
			return i
		}
	}
	return -1
}

// CacheRates returns the flattened c_j vector.
func (w *Workload) CacheRates() []float64 {
	out := make([]float64, 0, w.NumThreads())
	for i := range w.Apps {
		out = append(out, w.Apps[i].CacheRates()...)
	}
	return out
}

// MemRates returns the flattened m_j vector.
func (w *Workload) MemRates() []float64 {
	out := make([]float64, 0, w.NumThreads())
	for i := range w.Apps {
		out = append(out, w.Apps[i].MemRates()...)
	}
	return out
}

// MaxRate bounds a valid request rate. C1–C8's rates stay below 100.
// Every model quantity is a sum of rates times latencies of a few
// hundred cycles, or a variance of such sums, so with rates this
// bounded they stay far inside float64's range instead of overflowing
// to an Inf that no mapper can minimize.
const MaxRate = 1e12

// Validate reports an error for empty workloads and for rates that are
// negative, NaN, infinite or above MaxRate.
func (w *Workload) Validate() error {
	if len(w.Apps) == 0 {
		return fmt.Errorf("workload %q: no applications", w.Name)
	}
	for i := range w.Apps {
		a := &w.Apps[i]
		if len(a.Threads) == 0 {
			return fmt.Errorf("workload %q: application %q has no threads", w.Name, a.Name)
		}
		for j, t := range a.Threads {
			if t.CacheRate < 0 || t.MemRate < 0 {
				return fmt.Errorf("workload %q: app %q thread %d has negative rate", w.Name, a.Name, j)
			}
			// The negated test also catches NaN.
			if !(t.CacheRate <= MaxRate && t.MemRate <= MaxRate) {
				return fmt.Errorf("workload %q: app %q thread %d has rate (%g, %g) outside [0, %g]",
					w.Name, a.Name, j, t.CacheRate, t.MemRate, MaxRate)
			}
		}
	}
	return nil
}

// Stats summarizes the first two moments of a rate vector.
type Stats struct {
	Mean, Std float64
}

// RateStats returns (cache, memory) statistics over all threads of w —
// the quantities reported in the paper's Table 3.
type RateStats struct {
	Cache Stats
	Mem   Stats
}

// ComputeRateStats returns the configuration-level rate statistics of w.
func (w *Workload) ComputeRateStats() RateStats {
	return RateStats{
		Cache: Stats{Mean: stats.Mean(w.CacheRates()), Std: stats.StdDev(w.CacheRates())},
		Mem:   Stats{Mean: stats.Mean(w.MemRates()), Std: stats.StdDev(w.MemRates())},
	}
}

// SortAppsByTotalRate relabels applications in ascending order of total
// communication rate, matching the paper's convention that "Application 1
// has the lightest traffic" (Section II.D). Thread contents are unchanged.
func (w *Workload) SortAppsByTotalRate() {
	for i := 1; i < len(w.Apps); i++ {
		for j := i; j > 0 && w.Apps[j-1].TotalRate() > w.Apps[j].TotalRate(); j-- {
			w.Apps[j-1], w.Apps[j] = w.Apps[j], w.Apps[j-1]
		}
	}
}

// PadTo appends an idle pseudo-application with zero-rate threads so the
// workload has exactly n threads (paper Section III.B footnote: when
// fewer threads than tiles exist, pseudo threads with zero traffic fill
// the remainder). It returns an error if the workload already has more
// than n threads.
func (w *Workload) PadTo(n int) error {
	cur := w.NumThreads()
	if cur > n {
		return fmt.Errorf("workload %q: %d threads exceed %d tiles", w.Name, cur, n)
	}
	if cur == n {
		return nil
	}
	w.Apps = append(w.Apps, Application{
		Name:    "idle",
		Threads: make([]Thread, n-cur),
	})
	return nil
}
