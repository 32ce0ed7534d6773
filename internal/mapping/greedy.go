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

// BalancedGreedy is the balance-aware variant: at each step it picks
// the most urgent active application — the one with the highest APL so
// far (serve the worst-off first) — and gives its next thread the best
// remaining tile. It shows how far a simple greedy gets toward the OBM
// objective without SSS's swap machinery (one of the DESIGN.md
// ablations).
type BalancedGreedy struct{}

// Name implements Mapper.
func (BalancedGreedy) Name() string { return "BalancedGreedy" }

// Fingerprint implements Mapper.
func (BalancedGreedy) Fingerprint() string { return "balanced-greedy" }

// Map implements Mapper.
func (BalancedGreedy) Map(ctx context.Context, p *core.Problem) (core.Mapping, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := p.N()
	m := make(core.Mapping, n)
	used := make([]bool, n)

	// Per-application state: threads sorted descending by rate (heavy
	// first so they claim good tiles) and a cursor; numerators so far
	// live in num.
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

	for placed := 0; placed < n; placed++ {
		// Pick the unfinished application with the highest APL so far
		// (first wins on ties).
		pick := -1
		worst := 0.0
		for i := range apps {
			if apps[i].next >= len(apps[i].order) {
				continue
			}
			score := 0.0
			if w := p.AppWeight(i); w > 0 {
				score = num[i] / w
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
