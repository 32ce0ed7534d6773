package core

// LowerBound returns a provable lower bound on the optimal max-APL of
// the problem, computed from two relaxations (both SAM solves onto
// every tile, O(N^3) total):
//
//  1. Per-application relaxation: an application's APL under any
//     permutation is at least its APL when it may claim the best tiles
//     of the whole chip for itself, so the optimum is at least the
//     largest of these unconstrained per-application optima.
//
//  2. Mean relaxation: the maximum of the per-application APLs is at
//     least their request-rate-weighted mean, which equals the global
//     APL; the g-APL of any mapping is at least the optimal g-APL (one
//     chip-wide assignment), so that optimum also bounds max-APL.
//
// The returned bound is the larger of the two. Experiments use it to
// report how close sort-select-swap gets to optimal without needing an
// (exponential) exact solve.
//
// The bound is specific to the default max-APL Objective: both
// relaxations argue about the largest per-application APL and say
// nothing about dev-APL, the min/max ratio, or composites (Exact
// likewise only prunes with it under the default objective). A g-APL
// lower bound is the second relaxation alone.
func (p *Problem) LowerBound() (float64, error) {
	// Every relaxation places threads onto all N tiles.
	tiles := IdentityMapping(p.N())
	sam := p.NewSAMSolver()
	best := 0.0
	// Relaxation 1: each application alone on the chip.
	for i := 0; i < p.NumApps(); i++ {
		w := p.AppWeight(i)
		if w == 0 {
			continue
		}
		lo, hi := p.AppThreads(i)
		_, total, err := sam.solve(lo, hi, tiles)
		if err != nil {
			return 0, err
		}
		if apl := total / w; apl > best {
			best = apl
		}
	}
	// Relaxation 2: optimal g-APL.
	if p.totalRate > 0 {
		_, total, err := sam.solve(0, p.N(), tiles)
		if err != nil {
			return 0, err
		}
		if g := total / p.totalRate; g > best {
			best = g
		}
	}
	return best, nil
}
