package mapping

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"obm/internal/core"
	"obm/internal/mesh"
	"obm/internal/stats"
	"obm/internal/workload"
)

// referenceImproveWithBudget is ImproveWithBudget's best-first loop
// without window cost tables or permutation classes: the moved set is a
// map, every non-identity permutation of every window is checked
// against the budget with map lookups, and every one that fits is
// scored with fresh ThreadCost calls on a fully substituted copy of the
// numerators. It updates m (equal to base on entry) and num in place,
// applying a move exactly as the kernel does, and returns the moved
// count. It also returns the number of probes the kernel must make: per
// round and window, the classes of permutations that agree on every
// non-flat row, the identity's class left out, with at least one member
// that fits the budget.
func referenceImproveWithBudget(p *core.Problem, obj core.Objective, base, m core.Mapping, num []float64, maxMoves int) (moved, probes int) {
	const window = 4
	n := p.N()
	o := core.ObjectiveOrDefault(obj)
	sorted := p.Model().TilesByTC()
	inv := m.InverseOn(n)
	perms := permutations(window)
	movedSet := map[int]bool{}
	movedCount := func(js []int, ts []mesh.Tile) int {
		count := len(movedSet)
		for x, j := range js {
			was := movedSet[j]
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
	trialNum := make([]float64, len(num))
	value := func(js []int, ts []mesh.Tile) float64 {
		copy(trialNum, num)
		for x, j := range js {
			trialNum[p.AppOfThread(j)] += p.ThreadCost(j, ts[x]) - p.ThreadCost(j, m[j])
		}
		return o.Value(p, trialNum)
	}
	tiles := make([]mesh.Tile, window)
	threads := make([]int, window)
	trial := make([]mesh.Tile, window)
	for {
		curObj := o.Value(p, num)
		bestGain := 0.0
		var bestThreads [window]int
		var bestTiles [window]mesh.Tile
		found := false
		for step := 1; step <= n/window; step++ {
			for i := 0; i+(window-1)*step < n; i++ {
				for x := 0; x < window; x++ {
					tiles[x] = sorted[i+x*step]
					threads[x] = inv[tiles[x]]
				}
				// A class is the permutation's targets on the rows that
				// are not flat (equal cost on every window tile).
				flat := [window]bool{}
				for x, j := range threads {
					flat[x] = true
					for _, t := range tiles {
						flat[x] = flat[x] && p.ThreadCost(j, t) == p.ThreadCost(j, tiles[0])
					}
				}
				var classes [1 << (2 * window)]bool
				for _, perm := range perms {
					identity, inIdentityClass := true, true
					class := 0
					for x, y := range perm {
						trial[x] = tiles[y]
						identity = identity && y == x
						if !flat[x] {
							inIdentityClass = inIdentityClass && y == x
							class |= y << (2 * x)
						}
					}
					if identity {
						continue
					}
					if movedCount(threads, trial) > maxMoves {
						continue
					}
					if !inIdentityClass && !classes[class] {
						classes[class] = true
						probes++
					}
					if gain := curObj - value(threads, trial); gain > bestGain+1e-12 {
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
		for x, j := range bestThreads {
			num[p.AppOfThread(j)] += p.ThreadCost(j, bestTiles[x]) - p.ThreadCost(j, m[j])
			m[j] = bestTiles[x]
		}
		for x, j := range bestThreads {
			inv[bestTiles[x]] = j
			if bestTiles[x] != base[j] {
				movedSet[j] = true
			} else {
				delete(movedSet, j)
			}
		}
	}
	return len(movedSet), probes
}

// TestImproveWithBudgetMatchesReference: the table-driven refinement
// ends on the same mapping, the same moved count and bit-identical
// numerators as referenceImproveWithBudget, and makes exactly one probe
// per class that fits the budget, on the paper's configurations and a
// padded instance (whose idle threads give flat rows), from a random
// base, at budgets 0, 1, 4, 16 and N. Each (instance, budget) runs the
// default objective and one other, rotating through every objective.
func TestImproveWithBudgetMatchesReference(t *testing.T) {
	type named struct {
		name string
		p    *core.Problem
	}
	var probs []named
	for _, cfg := range workload.ConfigNames() {
		probs = append(probs, named{cfg, paperProblem(t, cfg)})
	}
	probs = append(probs, named{"pad40", paddedProblem(t, 40, 40)})
	others := append(allObjectives()[1:], core.Weighted{Max: 1, Dev: 2})
	ctx := context.Background()
	combo := 0
	for pi, pr := range probs {
		p := pr.p
		base := core.RandomMapping(p.N(), stats.NewRand(uint64(pi+1)))
		for _, budget := range []int{0, 1, 4, 16, p.N()} {
			combo++
			for _, obj := range []core.Objective{nil, others[combo%len(others)]} {
				where := fmt.Sprintf("%s budget %d %s", pr.name, budget, core.ObjectiveOrDefault(obj).Name())
				got := base.Clone()
				tr := newTracker(p, got, obj)
				moved, probes, err := refineWithBudget(ctx, tr, base, budget)
				if err != nil {
					t.Fatal(err)
				}
				want := base.Clone()
				wantNum := make([]float64, p.NumApps())
				for j, tile := range want {
					wantNum[p.AppOfThread(j)] += p.ThreadCost(j, tile)
				}
				wantMoved, wantProbes := referenceImproveWithBudget(p, obj, base, want, wantNum, budget)
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("%s: thread %d on tile %d, reference %d", where, j, got[j], want[j])
					}
				}
				if moved != wantMoved {
					t.Fatalf("%s: moved %d, reference %d", where, moved, wantMoved)
				}
				for a := range wantNum {
					if math.Float64bits(tr.num[a]) != math.Float64bits(wantNum[a]) {
						t.Fatalf("%s: app %d numerator %v, reference %v", where, a, tr.num[a], wantNum[a])
					}
				}
				if probes != wantProbes {
					t.Fatalf("%s: %d probes, want one per fitting class: %d", where, probes, wantProbes)
				}
				// The exported entry point returns the same result.
				m, n, err := ImproveWithBudget(ctx, p, base, budget, obj)
				if err != nil {
					t.Fatal(err)
				}
				if n != moved || !slices.Equal(m, got) {
					t.Fatalf("%s: ImproveWithBudget moved %d, refineWithBudget %d (or mappings differ)", where, n, moved)
				}
			}
		}
	}
}
