package mapping

import (
	"context"
	"fmt"
	"math"
	"sort"

	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/mesh"
	"obm/internal/stats"
)

// SelectStrategy chooses how the select step of sort-select-swap picks
// one tile per section of the sorted tile list for an application.
type SelectStrategy int

// Selection strategies. SelectMiddle is the paper's; the others exist for
// the ablation benchmarks.
const (
	// SelectMiddle picks the tile in the middle of each section
	// (Figure 6 of the paper).
	SelectMiddle SelectStrategy = iota
	// SelectFirst picks the first (smallest-TC) tile of each section.
	SelectFirst
	// SelectRandom picks a uniform random tile of each section.
	SelectRandom
)

func (s SelectStrategy) String() string {
	switch s {
	case SelectMiddle:
		return "middle"
	case SelectFirst:
		return "first"
	case SelectRandom:
		return "random"
	default:
		return fmt.Sprintf("SelectStrategy(%d)", int(s))
	}
}

// SortSelectSwap is the paper's proposed heuristic (Algorithm 2):
//
//  1. sort all tiles by their shared-cache APL TC(k);
//  2. for each application, divide the remaining sorted list into equal
//     sections, select the middle tile of each section, and assign the
//     selected tiles to the application's threads with a Hungarian SAM
//     solve (coarse tuning on the dominant cache traffic);
//  3. slide a 4-tile window over the sorted list with step sizes
//     1..N/4, trying all 24 permutations of each window's thread-to-tile
//     assignment and greedily keeping the one that minimizes the
//     max-APL (fine tuning that also accounts for memory traffic);
//     finally re-run SAM within each application.
//
// The zero value is the algorithm exactly as published. The exported
// fields switch individual phases off or vary them for the ablation
// studies in bench_test.go; they do not change the published defaults.
type SortSelectSwap struct {
	// DisableSwap skips step 3's sliding-window swaps (coarse tuning only).
	DisableSwap bool
	// DisableFinalSAM skips the final per-application Hungarian polish.
	DisableFinalSAM bool
	// Select overrides the section-selection strategy (default middle).
	Select SelectStrategy
	// WindowSize overrides the swap window size (default 4; 2..5 allowed —
	// cost grows as WindowSize! per window).
	WindowSize int
	// MaxStep caps the sliding-window step size; 0 means the paper's N/4.
	MaxStep int
	// Passes repeats the swap phase (each pass followed by the SAM
	// polish) until no pass improves the objective, up to this many
	// passes. 0 or 1 is the published single-pass algorithm; higher
	// values implement the iterate-to-convergence extension studied in
	// the ablation experiment.
	Passes int
	// Seed feeds SelectRandom; unused by the published configuration.
	Seed uint64
	// Objective selects the cost the swap phase minimizes and the
	// pass-convergence check monitors; nil is the paper's max-APL. The
	// coarse select/SAM phases are objective-agnostic (they tune the
	// dominant cache traffic, not the objective).
	Objective core.Objective
}

// Name implements Mapper.
func (s SortSelectSwap) Name() string {
	suffix := objName(s.Objective)
	s.Objective = nil
	if s == (SortSelectSwap{}) {
		return "SSS" + suffix
	}
	name := "SSS" + suffix + "["
	switch {
	case s.DisableSwap && s.DisableFinalSAM:
		name += "select-only"
	case s.DisableSwap:
		name += "no-swap"
	case s.DisableFinalSAM:
		name += "no-final-sam"
	default:
		name += "custom"
	}
	if s.Select != SelectMiddle {
		name += ",sel=" + s.Select.String()
	}
	if s.WindowSize != 0 && s.WindowSize != 4 {
		name += fmt.Sprintf(",w=%d", s.WindowSize)
	}
	if s.MaxStep != 0 {
		name += fmt.Sprintf(",maxstep=%d", s.MaxStep)
	}
	if s.Passes > 1 {
		name += fmt.Sprintf(",passes=%d", s.Passes)
	}
	return name + "]"
}

// Fingerprint implements Mapper, with the window default resolved.
// Passes 0 and 1 are both the published single-pass algorithm and the
// seed only feeds SelectRandom, so both normalize before printing.
func (s SortSelectSwap) Fingerprint() string {
	passes := s.Passes
	if passes < 1 {
		passes = 1
	}
	seed := s.Seed
	if s.Select != SelectRandom {
		seed = 0
	}
	return fmt.Sprintf("sss(swap=%t,finalsam=%t,sel=%s,win=%d,step=%d,passes=%d,seed=%d%s)",
		!s.DisableSwap, !s.DisableFinalSAM, s.Select, s.window(), s.MaxStep, passes, seed, objFingerprint(s.Objective))
}

// Map implements Mapper. The sliding-window phase (the only
// super-linear part) polls cancellation between window steps and
// reports step progress.
func (s SortSelectSwap) Map(ctx context.Context, p *core.Problem) (core.Mapping, error) {
	window := s.window()
	if window < 2 || window > 5 {
		return nil, fmt.Errorf("sss: window size %d out of range [2,5]", window)
	}
	n := p.N()
	var rng *stats.Rand
	if s.Select == SelectRandom {
		rng = stats.NewRand(s.Seed)
	}

	// Step 1: sort slots ascending by TC.
	sorted := sortedSlotsByTC(p)

	// Step 2: select tiles per application from the shrinking list and
	// SAM-assign them. The SAM solver and the section-select scratch are
	// shared across applications and passes (scratch reuse is what keeps
	// a full solve down to a handful of allocations).
	sam := p.NewSAMSolver()
	var sel selectScratch
	m := make(core.Mapping, n)
	remaining := append([]mesh.Tile(nil), sorted...)
	for i := 0; i < p.NumApps(); i++ {
		lo, hi := p.AppThreads(i)
		need := hi - lo
		if need == 0 {
			continue
		}
		picked, rest, err := sel.selectFromSections(remaining, need, s.Select, rng)
		if err != nil {
			return nil, fmt.Errorf("sss: app %d: %w", i, err)
		}
		if _, err := sam.SolveInto(m, i, picked); err != nil {
			return nil, err
		}
		remaining = rest
	}

	// Step 3: greedy sliding-window swaps over the full sorted list,
	// followed by the per-application SAM polish; optionally repeated
	// while the objective keeps improving (Passes > 1 extension).
	passes := s.Passes
	if passes <= 0 {
		passes = 1
	}
	prevObj := math.Inf(1)
	sc := p.Scorer(s.Objective)
	var sw swapScratch
	for pass := 0; pass < passes; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sss: interrupted in pass %d/%d: %w", pass+1, passes, err)
		}
		if !s.DisableSwap {
			if _, err := s.slideWindows(ctx, p, m, sorted, window, &sw); err != nil {
				return nil, err
			}
		}
		if !s.DisableFinalSAM {
			for i := 0; i < p.NumApps(); i++ {
				if err := sam.ReoptimizeApp(m, i); err != nil {
					return nil, err
				}
			}
		}
		if s.DisableSwap {
			break // nothing to iterate
		}
		if obj := sc.Score(m); obj < prevObj-1e-12 {
			prevObj = obj
		} else {
			break
		}
	}
	return m, nil
}

// window resolves WindowSize's default, the paper's 4-tile window.
func (s SortSelectSwap) window() int {
	if s.WindowSize == 0 {
		return 4
	}
	return s.WindowSize
}

// maxStep resolves MaxStep's default, the paper's n/window, for an
// n-thread problem.
func (s SortSelectSwap) maxStep(n, window int) int {
	if s.MaxStep <= 0 {
		return n / window
	}
	return s.MaxStep
}

// SwapProbes returns the number of non-identity window permutations one
// swap pass scores on an n-thread problem: step size 1..maxStep slides
// the window over every start whose last tile still fits in the sorted
// list, max(0, n-(window-1)*step) positions, and each position tries
// window!-1 permutations. It is the swap phase's exact work count, a
// deterministic stand-in for its wall time; 0 when DisableSwap is set.
func (s SortSelectSwap) SwapProbes(n int) int {
	if s.DisableSwap {
		return 0
	}
	window := s.window()
	perms := 1
	for k := 2; k <= window; k++ {
		perms *= k
	}
	probes := 0
	for step := 1; step <= s.maxStep(n, window); step++ {
		if starts := n - (window-1)*step; starts > 0 {
			probes += starts * (perms - 1)
		}
	}
	return probes
}

// sortedSlotsByTC returns every slot of the problem sorted ascending by
// TC — the tile order of SSS step 1, shared by the swap phase, the
// budgeted refiner, and warm starts. Ties (mesh symmetry, and all slots
// of one tile) are broken by index for determinism.
func sortedSlotsByTC(p *core.Problem) []mesh.Tile {
	n := p.N()
	sorted := make([]mesh.Tile, n)
	for i := range sorted {
		sorted[i] = mesh.Tile(i)
	}
	sort.SliceStable(sorted, func(a, b int) bool {
		ta, tb := p.TC(sorted[a]), p.TC(sorted[b])
		if ta != tb {
			return ta < tb
		}
		return sorted[a] < sorted[b]
	})
	return sorted
}

// selectScratch holds the reusable buffers of selectFromSections. The
// zero value is ready; buffers grow to the largest application seen.
type selectScratch struct {
	picked  []mesh.Tile
	pickIdx []int
}

// selectFromSections divides list into need equal sections, picks one
// tile per section according to the strategy, and returns the picks plus
// the unpicked remainder (order preserved). The picks land in sc's
// reused buffer (valid until the next call) and the remainder is
// compacted into list in place — callers own list, a private copy of the
// sorted tile order. Sections are disjoint and scanned in order, so the
// picked indices are strictly ascending and the compaction is a
// two-pointer merge, no lookup structure needed.
func (sc *selectScratch) selectFromSections(list []mesh.Tile, need int, strat SelectStrategy, rng *stats.Rand) (picked, rest []mesh.Tile, err error) {
	l := len(list)
	if need > l {
		return nil, nil, fmt.Errorf("need %d tiles from list of %d", need, l)
	}
	picked = sc.picked[:0]
	pickIdx := sc.pickIdx[:0]
	for q := 0; q < need; q++ {
		start := q * l / need
		end := (q + 1) * l / need
		var idx int
		switch strat {
		case SelectFirst:
			idx = start
		case SelectRandom:
			idx = start + rng.Intn(end-start)
		default: // SelectMiddle
			idx = (start + end - 1) / 2
		}
		pickIdx = append(pickIdx, idx)
		picked = append(picked, list[idx])
	}
	sc.picked, sc.pickIdx = picked, pickIdx
	w, k := 0, 0
	for i, t := range list {
		if k < len(pickIdx) && i == pickIdx[k] {
			k++
			continue
		}
		list[w] = t
		w++
	}
	return picked, list[:w], nil
}

// swapScratch holds the buffers slideWindows reuses across passes: the
// tile-to-thread inverse (rebuilt each pass — the SAM polish between
// passes moves threads) and the per-window work arrays. The zero value
// is ready.
type swapScratch struct {
	inv          []int
	tiles, trial []mesh.Tile
	threads      []int
}

func (sw *swapScratch) ensure(n, window int) {
	if cap(sw.inv) < n {
		sw.inv = make([]int, n)
	}
	sw.inv = sw.inv[:n]
	if cap(sw.tiles) < window {
		sw.tiles = make([]mesh.Tile, window)
		sw.trial = make([]mesh.Tile, window)
		sw.threads = make([]int, window)
	}
	sw.tiles = sw.tiles[:window]
	sw.trial = sw.trial[:window]
	sw.threads = sw.threads[:window]
}

// slideWindows performs the greedy permutation search of step 3 in
// place, polling cancellation between window steps (each step is a full
// sweep of the sorted list, i.e. O(N * window!) objective probes). It
// returns the number of probes scored, SwapProbes(N) for a full pass.
func (s SortSelectSwap) slideWindows(ctx context.Context, p *core.Problem, m core.Mapping, sorted []mesh.Tile, window int, sw *swapScratch) (int, error) {
	n := p.N()
	tr := newObjectiveTracker(p, m, s.Objective)
	sw.ensure(n, window)
	inv := sw.inv // tile -> thread
	for i := range inv {
		inv[i] = -1
	}
	for j, t := range m {
		inv[t] = j
	}
	perms := permutations(window)

	maxStep := s.maxStep(n, window)
	probes := 0
	rep := engine.StartStage(ctx, s.Name()+"/swap")
	tiles, threads, trial := sw.tiles, sw.threads, sw.trial
	for step := 1; step <= maxStep; step++ {
		if err := ctx.Err(); err != nil {
			return probes, fmt.Errorf("sss: interrupted at window step %d/%d: %w", step, maxStep, err)
		}
		rep.Report(step-1, maxStep)
		span := (window - 1) * step
		for i := 0; i+span < n; i++ {
			for x := 0; x < window; x++ {
				tiles[x] = sorted[i+x*step]
				threads[x] = inv[tiles[x]]
			}
			// Try every permutation; keep the best (identity included, so
			// the objective never worsens). Every non-identity one is
			// scored, so the probes are counted per window.
			probes += len(perms) - 1
			bestObj := tr.value()
			bestPerm := -1
			for pi, perm := range perms {
				identity := true
				for x, y := range perm {
					trial[x] = tiles[y]
					if y != x {
						identity = false
					}
				}
				if identity {
					continue
				}
				if obj := tr.assignValue(threads, trial); obj < bestObj {
					bestObj = obj
					bestPerm = pi
				}
			}
			if bestPerm >= 0 {
				perm := perms[bestPerm]
				for x, y := range perm {
					trial[x] = tiles[y]
				}
				tr.assign(threads, trial)
				for x := range threads {
					inv[trial[x]] = threads[x]
				}
			}
		}
	}
	rep.Finish(maxStep, maxStep)
	return probes, nil
}

// permTables memoizes the permutation lists for every legal window size
// (2..5), built once at init; a full sort-select-swap solve then reads
// them with zero allocations. Read-only after init, so safe to share
// between concurrent mappers.
var permTables [6][][]int

func init() {
	for k := 2; k < len(permTables); k++ {
		permTables[k] = buildPermutations(k)
	}
}

// permutations returns all k! permutations of [0,k) in a deterministic
// order (Heap's algorithm), from the memoized table for window-sized k.
// The result is shared — callers must not mutate it.
func permutations(k int) [][]int {
	if k >= 2 && k < len(permTables) {
		return permTables[k]
	}
	return buildPermutations(k)
}

func buildPermutations(k int) [][]int {
	cur := make([]int, k)
	for i := range cur {
		cur[i] = i
	}
	var out [][]int
	var rec func(h int)
	rec = func(h int) {
		if h == 1 {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < h; i++ {
			rec(h - 1)
			if h%2 == 0 {
				cur[i], cur[h-1] = cur[h-1], cur[i]
			} else {
				cur[0], cur[h-1] = cur[h-1], cur[0]
			}
		}
	}
	rec(k)
	return out
}
