package mapping

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/mesh"
)

// ImproveWithBudget refines an existing mapping toward a lower obj
// (nil obj is the paper's max-APL) while moving at most maxMoves
// threads — the constraint a live system faces, where every migration
// costs cache warmup and pause time. It runs sort-select-swap's
// sliding-window phase starting from base, but only accepts a window
// permutation if the cumulative set of threads displaced from their
// base tiles stays within budget (threads returned to their base tile
// leave the budget again). It returns the refined mapping and the
// number of threads that ended up moved. That count covers all N
// threads, including the idle pad threads that stand in for free tiles,
// so it overstates live-thread migrations whenever the chip is not full.
//
// With maxMoves >= N this converges to the same quality as a fresh SSS
// swap phase; with a small budget it spends the moves where the
// objective gains most.
//
// Each best-first round visits every window position and permutation,
// but a window's cost table is kept across rounds while the window
// holds the same threads, and each class of equal-scoring permutations
// (see slideWindows) is probed at most once per window and round. The
// loop polls ctx between rounds and between window steps, returning a
// wrapped ctx.Err() when interrupted.
func ImproveWithBudget(ctx context.Context, p *core.Problem, base core.Mapping, maxMoves int, obj core.Objective) (core.Mapping, int, error) {
	if err := base.Validate(p.N()); err != nil {
		return nil, 0, fmt.Errorf("refine: %w", err)
	}
	if maxMoves < 0 {
		return nil, 0, fmt.Errorf("refine: negative migration budget %d", maxMoves)
	}
	m := base.Clone()
	if maxMoves == 0 {
		return m, 0, nil
	}
	moved, _, err := refineWithBudget(ctx, newTracker(p, m, obj), base, maxMoves)
	if err != nil {
		return nil, 0, err
	}
	return m, moved, nil
}

// refineWithBudget runs ImproveWithBudget's best-first rounds in place
// on tr's mapping (which starts equal to base) and numerators. It
// returns the number of threads moved off base and the number of
// objective probes made.
//
// Each window position owns a w x w ThreadCost table (fillWindowCost),
// filled in the first round and refilled only when a move has changed
// the threads the window holds. Per round each window also gets a w x w
// table of budget deltas: +1 when thread x on tile y would newly leave
// its base tile, -1 when it would return there, 0 otherwise. A
// permutation then uses moved + the sum of its deltas (when moved plus
// every row's largest delta fits, all permutations fit and no sum is
// taken), and a move applies the table's cost deltas in the order its
// probe added them.
//
// Members of one class of permutations (permClasses) score
// bit-identically but spend different budget, so every permutation is
// still visited in order and checked against the budget. Only the first
// member of a class that fits is probed: the round keeps the first
// strictly better move by a 1e-12 margin, so a later member, whose gain
// equals one already compared, can never be chosen. The identity's
// class is skipped, since its gain is exactly 0.
func refineWithBudget(ctx context.Context, tr *tracker, base core.Mapping, maxMoves int) (moved, probes int, err error) {
	const window = 4
	p, m := tr.p, tr.m
	n := p.N()
	sorted := p.Model().TilesByTC()
	inv := m.InverseOn(n)
	perms := permutations(window)
	reps := permClasses(window).rep

	maxStep := n / window
	windows := 0
	for step := 1; step <= maxStep; step++ {
		if starts := n - (window-1)*step; starts > 0 {
			windows += starts
		}
	}
	// Per-window state in scan order: the threads each cost table was
	// filled for (-1 before the first fill), their applications, the
	// table and its flat-row mask.
	held := make([]int, windows*window)
	for k := range held {
		held[k] = -1
	}
	heldApps := make([]int, windows*window)
	costs := make([]float64, windows*window*window)
	flats := make([]int, windows)

	isMoved := make([]bool, n)
	var (
		tiles  [window]mesh.Tile
		budget [window * window]int
		d      [window]float64
		// probed[rep] == stamp marks a class probed in the current
		// window and round (one entry per permutation of 4).
		probed [24]int
		stamp  int
	)
	rep := engine.StartStage(ctx, "refine")
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return 0, probes, fmt.Errorf("refine: interrupted in round %d: %w", round+1, err)
		}
		rep.Report(moved, maxMoves)
		curObj := tr.value()
		bestGain := 0.0
		bestWin, bestPerm := -1, -1
		var bestTiles [window]mesh.Tile
		k := 0
		for step := 1; step <= maxStep; step++ {
			if err := ctx.Err(); err != nil {
				return 0, probes, fmt.Errorf("refine: interrupted at window step %d/%d: %w", step, maxStep, err)
			}
			span := (window - 1) * step
			for i := 0; i+span < n; i, k = i+1, k+1 {
				threads := held[k*window : (k+1)*window]
				apps := heldApps[k*window : (k+1)*window]
				cost := costs[k*window*window : (k+1)*window*window]
				fresh := true
				for x := range tiles {
					tiles[x] = sorted[i+x*step]
					fresh = fresh && threads[x] == inv[tiles[x]]
				}
				if !fresh {
					for x, t := range tiles {
						threads[x] = inv[t]
						apps[x] = p.AppOfThread(threads[x])
					}
					flats[k] = fillWindowCost(p, threads, tiles[:], cost)
				}
				// maxUse bounds any permutation's budget use; when it
				// fits, no permutation needs its own sum.
				maxUse := moved
				for x, j := range threads {
					rowMax := -1
					for y, t := range tiles {
						delta := 0
						switch is := t != base[j]; {
						case is && !isMoved[j]:
							delta = 1
						case !is && isMoved[j]:
							delta = -1
						}
						budget[x*window+y] = delta
						rowMax = max(rowMax, delta)
					}
					maxUse += rowMax
				}
				allFit := maxUse <= maxMoves
				classes := reps[flats[k]]
				stamp++
				for pi, perm := range perms {
					c := classes[pi]
					if c == 0 || probed[c] == stamp {
						continue // the identity's class (gain exactly 0), or a class already compared
					}
					if !allFit {
						use := moved
						for x, y := range perm {
							use += budget[x*window+y]
						}
						if use > maxMoves {
							continue // would blow the migration budget
						}
					}
					probed[c] = stamp
					probes++
					windowDeltas(d[:], cost, perm)
					if gain := curObj - tr.probe(apps, d[:]); gain > bestGain+1e-12 {
						bestGain, bestWin, bestPerm = gain, k, pi
						bestTiles = tiles
					}
				}
			}
		}
		if bestPerm < 0 {
			break
		}
		threads := held[bestWin*window : (bestWin+1)*window]
		applyWindow(tr, inv, perms[bestPerm], threads, heldApps[bestWin*window:(bestWin+1)*window],
			bestTiles[:], costs[bestWin*window*window:(bestWin+1)*window*window])
		for _, j := range threads {
			if is := m[j] != base[j]; is != isMoved[j] {
				isMoved[j] = is
				if is {
					moved++
				} else {
					moved--
				}
			}
		}
	}
	rep.Finish(moved, maxMoves)
	return moved, probes, nil
}
