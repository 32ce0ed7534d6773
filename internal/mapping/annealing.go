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
// under a geometric cooling schedule. It runs one chain from one random
// stream seeded by Seed.
type Annealing struct {
	// Iters is the number of proposed moves. The paper gives SA a
	// runtime budget; iterations are the deterministic equivalent
	// (Figure 12 sweeps this knob).
	Iters int
	// T0 is the initial temperature in APL cycles. If 0, it is derived
	// from the spread of the initial random mapping's objective.
	T0 float64
	// Cooling is the per-step geometric factor; 0 means an automatic
	// schedule ending near 1e-4*T0 after Iters steps.
	Cooling float64
	Seed    uint64
	// Objective selects the cost the annealer minimizes; nil is the
	// paper's max-APL (published behavior, bit-identical).
	Objective core.Objective
}

// Name implements Mapper.
func (a Annealing) Name() string {
	return fmt.Sprintf("SA(%d)%s", a.Iters, objName(a.Objective))
}

// Fingerprint implements Mapper. T0 and Cooling are printed raw (0
// selects the automatic schedule, which is itself a deterministic
// function of the problem and seed).
func (a Annealing) Fingerprint() string {
	return fmt.Sprintf("sa(iters=%d,t0=%g,cooling=%g,seed=%d%s)", a.Iters, a.T0, a.Cooling, a.Seed, objFingerprint(a.Objective))
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

	t0 := a.T0
	if t0 <= 0 {
		// A move changes the objective by at most a few cycles; starting at
		// ~5% of the initial objective accepts most early uphill moves.
		t0 = 0.05 * tr.value()
		if t0 <= 0 {
			t0 = 1
		}
	}
	cooling := a.Cooling
	if cooling <= 0 || cooling >= 1 {
		// Reach 1e-4 * T0 on the final iteration.
		cooling = math.Exp(math.Log(1e-4) / float64(a.Iters))
	}

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
