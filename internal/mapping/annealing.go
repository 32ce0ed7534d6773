package mapping

import (
	"context"
	"fmt"
	"math"

	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/stats"
)

// Annealing is the simulated-annealing baseline of Section V.A: a random
// "move" swaps the tile assignments of two randomly chosen threads, the
// objective is the max-APL, and acceptance follows the Metropolis rule
// under a geometric cooling schedule derived from the problem: the
// temperature starts at 5% of the initial random mapping's objective
// and falls to 1e-4 of that start on the final iteration. It runs one
// chain from one random stream seeded by Seed.
type Annealing struct {
	// Iters is the number of proposed moves. The paper gives SA a
	// runtime budget; iterations are the deterministic equivalent
	// (Figure 12 sweeps this knob).
	Iters int
	Seed  uint64
	// Objective selects the cost the annealer minimizes; nil is the
	// paper's max-APL (published behavior, bit-identical).
	Objective core.Objective
}

// Name implements Mapper.
func (a Annealing) Name() string {
	return fmt.Sprintf("SA(%d)%s", a.Iters, objName(a.Objective))
}

// Fingerprint implements Mapper. The schedule is always derived, but
// the key keeps the "t0=0,cooling=0" it printed when a zero temperature
// and factor selected the derived schedule, so every cached artifact
// key stays byte-identical.
func (a Annealing) Fingerprint() string {
	return fmt.Sprintf("sa(iters=%d,t0=0,cooling=0,seed=%d%s)", a.Iters, a.Seed, objFingerprint(a.Objective))
}

// saPollMask sets how often the iteration loop polls cancellation and
// reports progress (every saPollMask+1 proposed moves).
const saPollMask = 63

// Map implements Mapper. The move loop polls ctx every saPollMask+1
// iterations and returns a wrapped ctx.Err() when cancelled; the polls
// never touch the random stream.
func (a Annealing) Map(ctx context.Context, p *core.Problem) (core.Mapping, error) {
	if a.Iters <= 0 {
		return nil, fmt.Errorf("annealing: need positive iteration count, got %d", a.Iters)
	}
	rep := engine.StartStage(ctx, a.Name())
	rng := stats.NewRand(a.Seed)
	n := p.N()
	cur := core.RandomMapping(n, rng)
	tr := newTracker(p, cur, a.Objective)

	// A move changes the objective by at most a few cycles; starting at
	// ~5% of the initial objective accepts most early uphill moves.
	t0 := 0.05 * tr.value()
	if t0 <= 0 {
		t0 = 1
	}
	// Reach 1e-4 * T0 on the final iteration.
	cooling := math.Exp(math.Log(1e-4) / float64(a.Iters))

	best := cur.Clone()
	bestObj := tr.value()
	curObj := bestObj
	temp := t0
	for it := 0; it < a.Iters; it++ {
		if it&saPollMask == saPollMask {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("annealing: interrupted after %d/%d iterations: %w", it, a.Iters, err)
			}
			rep.Report(it, a.Iters)
		}
		j1 := rng.Intn(n)
		j2 := rng.Intn(n - 1)
		if j2 >= j1 {
			j2++
		}
		obj := tr.swapValue(j1, j2)
		accept := obj <= curObj
		if !accept && temp > 0 {
			accept = rng.Float64() < math.Exp((curObj-obj)/temp)
		}
		if accept {
			tr.swap(j1, j2)
			curObj = obj
			if obj < bestObj {
				bestObj = obj
				copy(best, tr.m)
			}
		}
		temp *= cooling
	}
	rep.Finish(a.Iters, a.Iters)
	return best, nil
}
