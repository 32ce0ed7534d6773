package mapping

import (
	"context"
	"testing"

	"obm/internal/core"
	"obm/internal/stats"
)

func TestImproveWithBudgetValidation(t *testing.T) {
	p := paperProblem(t, "C1")
	if _, _, err := ImproveWithBudget(context.Background(), p, make(core.Mapping, 3), 5, nil); err == nil {
		t.Error("invalid base accepted")
	}
	base := core.IdentityMapping(p.N())
	if _, _, err := ImproveWithBudget(context.Background(), p, base, -1, nil); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestImproveWithBudgetZero(t *testing.T) {
	p := paperProblem(t, "C1")
	base := core.IdentityMapping(p.N())
	m, n, err := ImproveWithBudget(context.Background(), p, base, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("moved %d with zero budget", n)
	}
	for j := range base {
		if m[j] != base[j] {
			t.Fatal("zero budget changed the mapping")
		}
	}
}

// TestImproveWithBudgetRespectsBudget: moved-thread count never exceeds
// the budget, the result is valid, and the objective never worsens.
func TestImproveWithBudgetRespectsBudget(t *testing.T) {
	p := paperProblem(t, "C4")
	rng := stats.NewRand(3)
	base := core.RandomMapping(p.N(), rng)
	baseObj := p.MaxAPL(base)
	for _, budget := range []int{4, 8, 16, 32, 64} {
		m, moved, err := ImproveWithBudget(context.Background(), p, base, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(p.N()); err != nil {
			t.Fatal(err)
		}
		if moved > budget {
			t.Errorf("budget %d: moved %d", budget, moved)
		}
		// Recount independently.
		actual := 0
		for j := range base {
			if m[j] != base[j] {
				actual++
			}
		}
		if actual != moved {
			t.Errorf("budget %d: reported %d moves, actual %d", budget, moved, actual)
		}
		if obj := p.MaxAPL(m); obj > baseObj+1e-9 {
			t.Errorf("budget %d: objective worsened %.4f -> %.4f", budget, baseObj, obj)
		}
	}
}

// TestImproveWithBudgetMonotoneInBudget: more budget never hurts, and a
// full budget approaches fresh-SSS quality.
func TestImproveWithBudgetMonotone(t *testing.T) {
	p := paperProblem(t, "C6")
	rng := stats.NewRand(7)
	base := core.RandomMapping(p.N(), rng)
	prev := p.MaxAPL(base)
	objAt := map[int]float64{}
	for _, budget := range []int{4, 16, 64} {
		m, _, err := ImproveWithBudget(context.Background(), p, base, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		obj := p.MaxAPL(m)
		objAt[budget] = obj
		if obj > prev+1e-9 {
			t.Errorf("budget %d worsened the trend: %.4f after %.4f", budget, obj, prev)
		}
		prev = obj
	}
	// Full budget should land within 3% of a fresh SSS solve.
	sm, err := MapAndCheck(context.Background(), SortSelectSwap{}, p)
	if err != nil {
		t.Fatal(err)
	}
	fresh := p.MaxAPL(sm)
	if objAt[64] > fresh*1.03 {
		t.Errorf("full-budget refine %.4f not near fresh SSS %.4f", objAt[64], fresh)
	}
}

// TestImproveWithBudgetSmallBudgetBuysMost: a handful of migrations
// captures a large share of the improvement (why budgeted remapping is
// worth having).
func TestImproveSmallBudgetBuysMost(t *testing.T) {
	p := paperProblem(t, "C3")
	rng := stats.NewRand(11)
	base := core.RandomMapping(p.N(), rng)
	baseObj := p.MaxAPL(base)
	m64, _, err := ImproveWithBudget(context.Background(), p, base, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := baseObj - p.MaxAPL(m64)
	m8, _, err := ImproveWithBudget(context.Background(), p, base, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	part := baseObj - p.MaxAPL(m8)
	if full <= 0 {
		t.Skip("no improvement possible from this base")
	}
	if part < 0.3*full {
		t.Errorf("8 migrations captured only %.0f%% of the full improvement", 100*part/full)
	}
}
