package experiments

import (
	"context"
	"testing"

	"obm/internal/scenario"
)

// TestParetoFrontShape pins the acceptance shape of the pareto
// experiment: every configuration yields a front of at least three
// mutually non-dominated mappings over {max-APL, dev-APL, energy},
// with exactly one knee and a positive hypervolume.
func TestParetoFrontShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs NSGA-II; skip under -short")
	}
	pr, err := extPareto(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if pr.Objectives != "vec(max-APL,dev-APL,energy)" {
		t.Errorf("objectives = %q", pr.Objectives)
	}
	if len(pr.Configs) != 2 {
		t.Fatalf("configs = %d, want 2", len(pr.Configs))
	}
	for _, pc := range pr.Configs {
		if len(pc.Rows) < 3 {
			t.Errorf("%s front has %d members, want >= 3", pc.Config, len(pc.Rows))
		}
		knees := 0
		for _, row := range pc.Rows {
			if row.Knee {
				knees++
			}
			if row.MaxAPL <= 0 || row.EnergyPJ <= 0 {
				t.Errorf("%s has non-positive costs: %+v", pc.Config, row)
			}
		}
		if knees != 1 {
			t.Errorf("%s has %d knees, want exactly 1", pc.Config, knees)
		}
		if pc.Hypervolume <= 0 {
			t.Errorf("%s hypervolume = %v, want > 0", pc.Config, pc.Hypervolume)
		}
		if len(pc.KneeGrid) != 8 || len(pc.KneeEnergy) != 8 {
			t.Errorf("%s knee fields not 8x8", pc.Config)
		}
	}
}

// TestParetoUsesSharedCache: fronts route through the shared artifact
// store — one compute per configuration cold, zero on a warm re-run
// with identical output.
func TestParetoUsesSharedCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs NSGA-II; skip under -short")
	}
	scenario.ResetShared()
	t.Cleanup(func() { scenario.ResetShared() })
	cold, err := extPareto(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	st := scenario.Shared().StoreStats()
	if st.Computed != 2 {
		t.Fatalf("cold run computed %d artifacts, want 2 (one per config)", st.Computed)
	}
	warm, err := extPareto(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	st = scenario.Shared().StoreStats()
	if st.Computed != 2 || st.MemHits != 2 {
		t.Errorf("warm run stats = %+v, want 2 computed, 2 memory hits", st)
	}
	if cold.Render() != warm.Render() {
		t.Error("warm render differs from cold")
	}
}
