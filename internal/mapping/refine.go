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
// number of slots that ended up moved. That count covers all N slots,
// including the idle pad threads that stand in for free tiles, so it
// overstates live-thread migrations whenever the chip is not full.
//
// With maxMoves >= N this converges to the same quality as a fresh SSS
// swap phase; with a small budget it spends the moves where the
// objective gains most.
//
// Each best-first round is a full O(N * window!) scan, so the loop
// polls ctx between rounds and between window steps, returning a
// wrapped ctx.Err() when interrupted.
func ImproveWithBudget(ctx context.Context, p *core.Problem, base core.Mapping, maxMoves int, obj core.Objective) (core.Mapping, int, error) {
	if err := base.Validate(p.N()); err != nil {
		return nil, 0, fmt.Errorf("refine: %w", err)
	}
	if maxMoves < 0 {
		return nil, 0, fmt.Errorf("refine: negative migration budget %d", maxMoves)
	}
	n := p.N()
	m := base.Clone()
	if maxMoves == 0 {
		return m, 0, nil
	}

	// Sorted slot list, as in SSS step 1.
	sorted := sortedSlotsByTC(p)

	tr := newObjectiveTracker(p, m, obj)
	inv := m.InverseOn(n)
	perms := permutations(4)
	moved := map[int]bool{}
	movedCount := func(js []int, ts []mesh.Tile) int {
		// Budget usage if threads js were placed on tiles ts.
		count := len(moved)
		for x, j := range js {
			was := moved[j]
			is := ts[x] != base[j]
			if is && !was {
				count++
			}
			if !is && was {
				count--
			}
		}
		return count
	}

	// Best-first: each round scans every window and applies only the
	// single permutation with the largest objective gain that fits the
	// remaining budget, so a small budget goes to the most valuable
	// migrations instead of whichever window the sweep meets first.
	const window = 4
	rep := engine.StartStage(ctx, "refine")
	tiles := make([]mesh.Tile, window)
	threads := make([]int, window)
	trial := make([]mesh.Tile, window)
	maxStep := n / window
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("refine: interrupted in round %d: %w", round+1, err)
		}
		rep.Report(len(moved), maxMoves)
		curObj := tr.value()
		bestGain := 0.0
		var bestThreads [window]int
		var bestTiles [window]mesh.Tile
		found := false
		for step := 1; step <= maxStep; step++ {
			if err := ctx.Err(); err != nil {
				return nil, 0, fmt.Errorf("refine: interrupted at window step %d/%d: %w", step, maxStep, err)
			}
			span := (window - 1) * step
			for i := 0; i+span < n; i++ {
				for x := 0; x < window; x++ {
					tiles[x] = sorted[i+x*step]
					threads[x] = inv[tiles[x]]
				}
				for _, perm := range perms {
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
					if movedCount(threads, trial) > maxMoves {
						continue // would blow the migration budget
					}
					if gain := curObj - tr.assignValue(threads, trial); gain > bestGain+1e-12 {
						bestGain = gain
						copy(bestThreads[:], threads)
						copy(bestTiles[:], trial)
						found = true
					}
				}
			}
		}
		if !found {
			break
		}
		tr.assign(bestThreads[:], bestTiles[:])
		for x := range bestThreads {
			inv[bestTiles[x]] = bestThreads[x]
			if bestTiles[x] != base[bestThreads[x]] {
				moved[bestThreads[x]] = true
			} else {
				delete(moved, bestThreads[x])
			}
		}
	}
	rep.Finish(len(moved), maxMoves)
	return m, len(moved), nil
}
