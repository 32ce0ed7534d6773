package sched

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/mapping"
)

// Remapper produces a candidate replacement mapping for the live
// problem. The incumbent is the mapping currently running on the chip;
// implementations must not modify it.
type Remapper interface {
	// Name labels the remapper in results.
	Name() string
	// Remap solves for a candidate; the caller decides adoption (e.g.
	// via CompositeCost), so returning a candidate no better than the
	// incumbent is allowed, just useless.
	Remap(ctx context.Context, p *core.Problem, incumbent core.Mapping) (core.Mapping, error)
}

// FullRemap re-solves the whole problem from scratch with a configured
// mapper, ignoring the incumbent — the quality ceiling, at full solve
// cost.
type FullRemap struct{ Mapper mapping.Mapper }

// Name implements Remapper.
func (f FullRemap) Name() string { return "full:" + f.Mapper.Name() }

// Remap implements Remapper.
func (f FullRemap) Remap(ctx context.Context, p *core.Problem, _ core.Mapping) (core.Mapping, error) {
	return mapping.MapAndCheck(ctx, f.Mapper, p)
}

// WarmRemap runs sort-select-swap's fine-tuning phases from the
// incumbent (mapping.SortSelectSwap.WarmStart) — the streaming
// scheduler's workhorse: cost scales with the configured MaxStep
// instead of a full re-solve, and the result never scores worse than
// the incumbent under SSS.Objective.
type WarmRemap struct{ SSS mapping.SortSelectSwap }

// Name implements Remapper.
func (w WarmRemap) Name() string { return "warm:" + w.SSS.Name() }

// Remap implements Remapper.
func (w WarmRemap) Remap(ctx context.Context, p *core.Problem, incumbent core.Mapping) (core.Mapping, error) {
	return w.SSS.WarmStart(ctx, p, incumbent)
}

// BudgetRemap refines the incumbent under the paper's max-APL, moving
// at most Budget threads (mapping.ImproveWithBudget) — hard-capped
// disruption per remap, at best-first search cost.
type BudgetRemap struct{ Budget int }

// Name implements Remapper.
func (b BudgetRemap) Name() string { return fmt.Sprintf("budget-%d", b.Budget) }

// Remap implements Remapper.
func (b BudgetRemap) Remap(ctx context.Context, p *core.Problem, incumbent core.Mapping) (core.Mapping, error) {
	m, _, err := mapping.ImproveWithBudget(ctx, p, incumbent, b.Budget, nil)
	return m, err
}

// CompositeCost is the migration-cost-aware adoption test: a candidate
// replaces the incumbent only if its objective improvement outweighs a
// per-thread migration charge. Built to compose with core.Weighted —
// Objective scores balance, PerMigration prices disruption in the same
// units — so the scheduler's effective objective is
// obj(mapping) + PerMigration·migrations, evaluated at adoption time.
type CompositeCost struct {
	// Objective scores mappings; nil is the paper's max-APL.
	Objective core.Objective
	// PerMigration is the objective-unit charge per migrated thread;
	// zero adopts any strict improvement.
	PerMigration float64
}

// Accept reports whether a candidate scoring cand (against the
// incumbent's cur) is worth migrations thread moves.
func (c CompositeCost) Accept(cur, cand float64, migrations int) bool {
	return cand+c.PerMigration*float64(migrations) < cur-1e-12
}
