package experiments

import (
	"context"
	"strings"
	"testing"

	"obm/internal/core"
)

// TestObjectiveGridShape pins the grid's structure: every configuration
// carries one cell per (optimizing mapper, objective) pair.
func TestObjectiveGridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs mappers under every objective; skip under -short")
	}
	or, err := extObjective(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	wantCells := 3 * len(core.Objectives())
	for _, g := range or.Configs {
		if len(g.Cells) != wantCells {
			t.Errorf("%s: %d cells, want %d", g.Config, len(g.Cells), wantCells)
		}
	}
	if !strings.Contains(or.Render(), "dev-APL") {
		t.Error("render misses objective rows")
	}
}

// TestObjectiveGridOwnMetricWins is the experiment's acceptance
// property: at least one non-default objective must strictly beat the
// max-APL-optimized mapping of the same mapper under its own metric —
// the whole point of making objectives pluggable rather than reading
// alternative metrics off the max-APL optimum.
func TestObjectiveGridOwnMetricWins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs mappers under every objective; skip under -short")
	}
	or, err := extObjective(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, g := range or.Configs {
		for _, mapper := range []string{"MC", "SA", "SSS"} {
			for _, obj := range core.Objectives()[1:] {
				if gain, ok := or.OwnMetricGain(g.Config, mapper, obj.Name()); ok && gain > 0 {
					wins++
				}
			}
		}
	}
	if wins == 0 {
		t.Error("no non-default objective beat the max-APL optimum under its own metric")
	}
}
