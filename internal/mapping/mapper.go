// Package mapping implements the application-to-core mapping algorithms
// evaluated in the paper (Section V.A):
//
//   - Global — overall-latency minimization via a single chip-wide
//     Hungarian assignment (the performance-oriented baseline whose
//     imbalance motivates the paper);
//   - MonteCarlo — best-of-R random mappings under the max-APL objective;
//   - Annealing — simulated annealing over 2-thread swap moves under the
//     max-APL objective;
//   - SortSelectSwap — the paper's proposed O(N^3) heuristic
//     (Algorithm 2), with switches for the ablation studies.
package mapping

import (
	"context"
	"fmt"
	"time"

	"obm/internal/core"
	"obm/internal/obs"
)

// Mapper produces a thread-to-tile mapping for an OBM problem instance.
// Implementations must return a valid permutation.
type Mapper interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Fingerprint returns a stable content key covering the algorithm
	// and every parameter that can affect the returned mapping (seeds
	// and budgets included; knobs that are documented not to change the
	// result, like worker counts, are excluded). Two mappers with equal
	// fingerprints must produce identical mappings on equal problems —
	// the scenario artifact cache relies on this to share one
	// computation per distinct invocation. Defaulted parameters are
	// resolved before printing, so the zero value and an explicit
	// default share a fingerprint.
	Fingerprint() string
	// Map solves the instance. Implementations must be deterministic for
	// a fixed configuration (all randomness comes from explicit seeds);
	// ctx carries cancellation, a deadline, and optionally a progress
	// sink (engine.WithSink), none of which may perturb the random
	// streams — a run that is never cancelled returns bit-identical
	// results whatever the context. Iterative mappers poll ctx and
	// return a ctx.Err()-wrapped error when interrupted.
	Map(ctx context.Context, p *core.Problem) (core.Mapping, error)
}

// ObjectiveFingerprint returns the content fingerprint of the
// objective mapper m optimizes, for artifact WorkUnit descriptors. By
// the Mapper contract a non-default objective is already folded into
// m.Fingerprint(); this surfaces it as a separate, self-describing
// field so stores and daemons can classify artifacts without
// instantiating the mapper. Mappers without a configurable objective
// report the cost they minimize by construction: the paper's max-APL
// for the heuristics, g-APL for Global (a chip-wide Hungarian
// assignment minimizes overall latency, not balance).
func ObjectiveFingerprint(m Mapper) string {
	var o core.Objective
	switch v := m.(type) {
	case Global:
		return core.GAPL{}.Fingerprint()
	case MonteCarlo:
		o = v.Objective
	case Annealing:
		o = v.Objective
	case SortSelectSwap:
		o = v.Objective
	case ClusterSA:
		o = v.Objective
	case BalancedGreedy:
		o = v.Objective
	case Exact:
		o = v.Objective
	}
	return core.ObjectiveOrDefault(o).Fingerprint()
}

// MapAndCheck runs m on p and validates the returned permutation,
// wrapping any violation with the mapper's name. Experiment harnesses use
// this so a buggy mapper can never silently corrupt results. Each
// invocation is recorded in the process metrics registry — a per-
// algorithm call counter and wall-time histogram — so a run's mapper
// budget is visible without one-off timing code (the ablation and
// scaling experiments render swap-probe counts, so this timer is where
// their wall time lives).
func MapAndCheck(ctx context.Context, m Mapper, p *core.Problem) (core.Mapping, error) {
	name := m.Name()
	reg := obs.Default()
	reg.Counter("mapping." + name + ".calls").Inc()
	start := time.Now()
	mp, err := m.Map(ctx, p)
	reg.Timer("mapping." + name + ".seconds").Since(start)
	if err != nil {
		reg.Counter("mapping." + name + ".errors").Inc()
		return nil, fmt.Errorf("mapping: %s: %w", name, err)
	}
	if err := mp.Validate(p.N()); err != nil {
		reg.Counter("mapping." + name + ".errors").Inc()
		return nil, fmt.Errorf("mapping: %s produced invalid mapping: %w", name, err)
	}
	return mp, nil
}
