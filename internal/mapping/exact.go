package mapping

import (
	"context"
	"fmt"
	"math"

	"obm/internal/core"
	"obm/internal/mesh"
)

// Exact solves the OBM problem (the paper's max-APL) to optimality by
// branch and bound. The problem is NP-complete (Section III.C of the
// paper), so this is only practical for small instances (N up to ~16);
// it exists to check the heuristics' optimality gap in tests and the
// NP-completeness reduction (internal/npc), not for production mapping.
// The search is bounded at exactNodeLimit nodes: if the bound is hit,
// Map returns an error rather than a possibly suboptimal mapping.
type Exact struct{}

// exactNodeLimit bounds the branch-and-bound search.
const exactNodeLimit = 50_000_000

// Name implements Mapper.
func (Exact) Name() string { return "Exact" }

// Fingerprint implements Mapper. The node bound is part of the key
// because hitting it turns a result into an error.
func (Exact) Fingerprint() string { return fmt.Sprintf("exact(maxnodes=%d)", exactNodeLimit) }

// Map implements Mapper. The branch-and-bound search polls
// cancellation every few thousand nodes, so even an exponential
// instance unwinds promptly under a deadline.
func (Exact) Map(ctx context.Context, p *core.Problem) (core.Mapping, error) {
	n := p.N()
	if n > 24 {
		return nil, fmt.Errorf("exact: %d tiles is far beyond branch-and-bound reach", n)
	}

	// Seed the incumbent with SSS so pruning bites immediately.
	incumbent, err := (SortSelectSwap{}).Map(ctx, p)
	if err != nil {
		return nil, err
	}
	bestObj := p.MaxAPL(incumbent)
	best := incumbent.Clone()

	// Per-thread sorted tile preferences are not needed; the bound uses
	// each remaining thread's cheapest available tile.
	used := make([]bool, n)
	cur := make(core.Mapping, n)
	num := make([]float64, p.NumApps()) // per-app numerators so far
	var nodes int64

	// remainingMin returns, for each app, an optimistic completion: every
	// unassigned thread takes its cheapest unused tile (allowing
	// conflicts — still a valid lower bound).
	lowerBound := func(nextThread int) float64 {
		lb := 0.0
		for i := 0; i < p.NumApps(); i++ {
			w := p.AppWeight(i)
			if w == 0 {
				continue
			}
			lo, hi := p.AppThreads(i)
			opt := num[i]
			for j := max(lo, nextThread); j < hi; j++ {
				cheapest := math.Inf(1)
				for k := 0; k < n; k++ {
					if used[k] {
						continue
					}
					if c := p.ThreadCost(j, mesh.Tile(k)); c < cheapest {
						cheapest = c
					}
				}
				opt += cheapest
			}
			if apl := opt / w; apl > lb {
				lb = apl
			}
		}
		return lb
	}

	var overflow bool
	var cancelled error
	var dfs func(j int)
	dfs = func(j int) {
		if overflow || cancelled != nil {
			return
		}
		nodes++
		if nodes > exactNodeLimit {
			overflow = true
			return
		}
		if nodes&8191 == 0 {
			if err := ctx.Err(); err != nil {
				cancelled = err
				return
			}
		}
		if j == n {
			if obj := (core.MaxAPL{}).Value(p, num); obj < bestObj {
				bestObj = obj
				copy(best, cur)
			}
			return
		}
		if lowerBound(j) >= bestObj-1e-12 {
			return // cannot beat the incumbent
		}
		app := p.AppOfThread(j)
		for k := 0; k < n; k++ {
			if used[k] {
				continue
			}
			used[k] = true
			cur[j] = mesh.Tile(k)
			c := p.ThreadCost(j, mesh.Tile(k))
			num[app] += c
			dfs(j + 1)
			num[app] -= c
			used[k] = false
		}
	}
	dfs(0)
	if cancelled != nil {
		return nil, fmt.Errorf("exact: interrupted after %d nodes: %w", nodes, cancelled)
	}
	if overflow {
		return nil, fmt.Errorf("exact: search exceeded %d nodes; instance too large", exactNodeLimit)
	}
	return best, nil
}
