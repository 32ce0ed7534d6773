package mapping

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/stats"
)

// MonteCarlo draws Samples random mappings and keeps the one with the
// minimum max-APL — the paper's MC baseline for the OBM problem
// (Section V.A, 10^4 samples).
//
// Samples are drawn and scored in batches through the SoA
// core.BatchEvaluator, which streams the flattened thread x tile cost
// table across the batch instead of gathering it per sample. The draw
// is one random stream seeded by Seed, so the result is a pure
// function of (problem, Samples, Seed, Objective) — exactly what
// Fingerprint prints.
type MonteCarlo struct {
	Samples int
	Seed    uint64
	// Objective selects the cost a sample is scored by; nil is the
	// paper's max-APL.
	Objective core.Objective
}

// Name implements Mapper.
func (mc MonteCarlo) Name() string {
	return fmt.Sprintf("MC(%d)%s", mc.Samples, objName(mc.Objective))
}

// Fingerprint implements Mapper.
func (mc MonteCarlo) Fingerprint() string {
	return fmt.Sprintf("mc(samples=%d,seed=%d%s)", mc.Samples, mc.Seed, objFingerprint(mc.Objective))
}

// mcPollMask sets how often the sample loop polls cancellation and
// reports progress: every mcPollMask+1 samples (a power of two so the
// check is a mask, not a division).
const mcPollMask = 255

// Map implements Mapper. Samples are drawn and scored in batches of
// mcPollMask+1 through the SoA core.BatchEvaluator (one pass of the
// flattened cost table scores the whole batch). It polls ctx between
// batches and returns a wrapped ctx.Err() when cancelled; polling never
// touches the random stream, so an uncancelled run is bit-identical for
// any context. RandomMappingInto consumes the same draws as
// RandomMapping and the batch scan compares costs in draw order with
// the same strict <, so the winner is bit-identical to the historical
// per-sample path. Steady state allocates only on improvement
// (logarithmically many times in expectation).
func (mc MonteCarlo) Map(ctx context.Context, p *core.Problem) (core.Mapping, error) {
	if mc.Samples <= 0 {
		return nil, fmt.Errorf("montecarlo: need positive sample count, got %d", mc.Samples)
	}
	rep := engine.StartStage(ctx, mc.Name())
	rng := stats.NewRand(mc.Seed)
	be := p.BatchEvaluator(mc.Objective)
	n := p.N()
	batch := mcPollMask + 1
	if batch > mc.Samples {
		batch = mc.Samples
	}
	flat := make(core.Mapping, batch*n)
	ms := make([]core.Mapping, batch)
	for k := range ms {
		ms[k] = flat[k*n : (k+1)*n]
	}
	out := make([]float64, batch)
	var best core.Mapping
	bestObj := 0.0
	for s := 0; s < mc.Samples; {
		if s > 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("montecarlo: interrupted after %d samples: %w", s, err)
			}
		}
		b := batch
		if mc.Samples-s < b {
			b = mc.Samples - s
		}
		for k := 0; k < b; k++ {
			core.RandomMappingInto(ms[k], rng)
		}
		be.EvaluateBatch(ms[:b], out[:b])
		for k := 0; k < b; k++ {
			if best == nil || out[k] < bestObj {
				best, bestObj = append(best[:0], ms[k]...), out[k]
			}
		}
		s += b
		rep.Report(s, mc.Samples)
	}
	rep.Finish(mc.Samples, mc.Samples)
	return best, nil
}
