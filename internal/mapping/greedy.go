package mapping

import (
	"context"
	"sort"

	"obm/internal/core"
	"obm/internal/mesh"
)

// Greedy is the classic list-scheduling heuristic for overall latency:
// threads are visited in descending order of total request rate, each
// taking the free tile with the lowest cost for it. It approximates
// Global at a fraction of the cost and inherits the same imbalance
// pathology, making it a useful extra baseline for the ablation
// benches.
type Greedy struct{}

// Name implements Mapper.
func (Greedy) Name() string { return "Greedy" }

// Fingerprint implements Mapper.
func (Greedy) Fingerprint() string { return "greedy" }

// Map implements Mapper.
func (Greedy) Map(ctx context.Context, p *core.Problem) (core.Mapping, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := p.N()
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra := p.CacheRate(order[a]) + p.MemRate(order[a])
		rb := p.CacheRate(order[b]) + p.MemRate(order[b])
		if ra != rb {
			return ra > rb
		}
		return order[a] < order[b]
	})
	m := make(core.Mapping, n)
	used := make([]bool, n)
	for _, j := range order {
		bestK := -1
		bestCost := 0.0
		for k := 0; k < n; k++ {
			if used[k] {
				continue
			}
			c := p.ThreadCost(j, mesh.Tile(k))
			if bestK < 0 || c < bestCost {
				bestK, bestCost = k, c
			}
		}
		used[bestK] = true
		m[j] = mesh.Tile(bestK)
	}
	return m, nil
}

// BalancedGreedy is the objective-aware variant: at each step it picks
// the most urgent active application and gives its next thread the best
// remaining tile. Under the default max-APL objective "most urgent" is
// the application with the highest APL so far (serve the worst-off
// first, exactly the published heuristic); under any other objective it
// is the application whose accumulated latency contributes most to the
// objective — the one whose numerator, if forgiven, would lower the
// cost the most. It shows how far a simple greedy gets toward the OBM
// objective without SSS's swap machinery (one of the DESIGN.md
// ablations).
type BalancedGreedy struct {
	// Objective selects the urgency measure; nil is the paper's max-APL.
	Objective core.Objective
}

// Name implements Mapper.
func (bg BalancedGreedy) Name() string { return "BalancedGreedy" + objName(bg.Objective) }

// Fingerprint implements Mapper.
func (bg BalancedGreedy) Fingerprint() string {
	return "balanced-greedy" + objFingerprint(bg.Objective)
}

// Map implements Mapper.
func (bg BalancedGreedy) Map(ctx context.Context, p *core.Problem) (core.Mapping, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := p.N()
	m := make(core.Mapping, n)
	used := make([]bool, n)

	// Per-application state: threads sorted descending by rate (heavy
	// first so they claim good tiles) and a cursor; numerators so far
	// live in num (the objective's input vector).
	type appState struct {
		order []int
		next  int
	}
	num := make([]float64, p.NumApps())
	apps := make([]appState, p.NumApps())
	for i := range apps {
		lo, hi := p.AppThreads(i)
		order := make([]int, hi-lo)
		for x := range order {
			order[x] = lo + x
		}
		sort.SliceStable(order, func(a, b int) bool {
			ra := p.CacheRate(order[a]) + p.MemRate(order[a])
			rb := p.CacheRate(order[b]) + p.MemRate(order[b])
			if ra != rb {
				return ra > rb
			}
			return order[a] < order[b]
		})
		apps[i].order = order
	}

	objDefault := core.IsDefaultObjective(bg.Objective)
	var objv core.Objective
	var curCost float64
	if !objDefault {
		objv = core.ObjectiveOrDefault(bg.Objective)
	}
	for placed := 0; placed < n; placed++ {
		// Pick the most urgent unfinished application (first wins on
		// ties): highest APL so far under the default objective, largest
		// marginal objective contribution otherwise.
		if objv != nil {
			curCost = objv.Value(p, num)
		}
		pick := -1
		worst := 0.0
		for i := range apps {
			if apps[i].next >= len(apps[i].order) {
				continue
			}
			score := 0.0
			if objDefault {
				if w := p.AppWeight(i); w > 0 {
					score = num[i] / w
				}
			} else {
				// Forgive i's numerator, score, and restore it.
				saved := num[i]
				num[i] = 0
				score = curCost - objv.Value(p, num)
				num[i] = saved
			}
			if pick < 0 || score > worst {
				pick, worst = i, score
			}
		}
		a := &apps[pick]
		j := a.order[a.next]
		a.next++
		bestK := -1
		bestCost := 0.0
		for k := 0; k < n; k++ {
			if used[k] {
				continue
			}
			c := p.ThreadCost(j, mesh.Tile(k))
			if bestK < 0 || c < bestCost {
				bestK, bestCost = k, c
			}
		}
		used[bestK] = true
		m[j] = mesh.Tile(bestK)
		num[pick] += bestCost
	}
	return m, nil
}
