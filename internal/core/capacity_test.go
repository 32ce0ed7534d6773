package core

import (
	"math"
	"testing"

	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/workload"
)

// capacityProblem: 32 threads (2 apps x 16) on a 4x4 mesh with 2
// threads per tile.
func capacityProblem(t *testing.T) *Problem {
	t.Helper()
	lm := model.MustNew(mesh.MustNew(4, 4), model.DefaultParams())
	w := &workload.Workload{Name: "cap"}
	for a := 0; a < 2; a++ {
		app := workload.Application{Name: "a"}
		for x := 0; x < 16; x++ {
			app.Threads = append(app.Threads, workload.Thread{
				CacheRate: float64(1 + (a*16+x)%7),
				MemRate:   0.2,
			})
		}
		w.Apps = append(w.Apps, app)
	}
	p, err := NewProblemWithCapacity(lm, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCapacityValidation(t *testing.T) {
	lm := model.MustNew(mesh.MustNew(4, 4), model.DefaultParams())
	w := workload.Figure5Workload() // 16 threads
	if _, err := NewProblemWithCapacity(lm, w, 0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewProblemWithCapacity(lm, w, 2); err == nil {
		t.Error("16 threads for 32 slots accepted")
	}
	p, err := NewProblemWithCapacity(lm, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Capacity() != 1 {
		t.Error("capacity not recorded")
	}
}

func TestCapacitySlotGeometry(t *testing.T) {
	p := capacityProblem(t)
	if p.N() != 32 || p.Capacity() != 2 {
		t.Fatalf("N=%d capacity=%d", p.N(), p.Capacity())
	}
	// Slots 0 and 1 live on tile 0; slots 30 and 31 on tile 15.
	if p.TileOfSlot(0) != 0 || p.TileOfSlot(1) != 0 {
		t.Error("slots 0/1 should be tile 0")
	}
	if p.TileOfSlot(31) != 15 {
		t.Errorf("slot 31 on tile %d, want 15", p.TileOfSlot(31))
	}
	// Both slots of one tile share TC/TM.
	for s := 0; s < 32; s += 2 {
		if p.TC(mesh.Tile(s)) != p.TC(mesh.Tile(s+1)) {
			t.Fatalf("slots %d/%d differ in TC", s, s+1)
		}
		if p.TM(mesh.Tile(s)) != p.TM(mesh.Tile(s+1)) {
			t.Fatalf("slots %d/%d differ in TM", s, s+1)
		}
	}
	// Slot TC equals the underlying tile's model TC.
	lm := p.Model()
	if p.TC(5) != lm.TC(p.TileOfSlot(5)) {
		t.Error("slot TC does not match tile TC")
	}
}

func TestCapacityThreadCostConsistent(t *testing.T) {
	p := capacityProblem(t)
	for j := 0; j < p.N(); j++ {
		for s := 0; s < p.N(); s++ {
			slot := mesh.Tile(s)
			want := p.CacheRate(j)*p.TC(slot) + p.MemRate(j)*p.TM(slot)
			if got := p.ThreadCost(j, slot); math.Abs(got-want) > 1e-12 {
				t.Fatalf("ThreadCost(%d,%d) = %v, want %v", j, s, got, want)
			}
		}
	}
}

func TestCapacityEvaluateMatchesManual(t *testing.T) {
	p := capacityProblem(t)
	m := IdentityMapping(32)
	ev := p.Evaluate(m)
	// Manual APL of app 0: threads 0..15 on slots 0..15 (tiles 0..7).
	var num, den float64
	for j := 0; j < 16; j++ {
		num += p.ThreadCost(j, m[j])
		den += p.CacheRate(j) + p.MemRate(j)
	}
	if math.Abs(ev.APLs[0]-num/den) > 1e-9 {
		t.Errorf("APL = %v, manual %v", ev.APLs[0], num/den)
	}
	if ev.MaxAPL <= 0 || ev.GlobalAPL <= 0 {
		t.Error("metrics not computed")
	}
}

func TestCapacityAppGrid(t *testing.T) {
	p := capacityProblem(t)
	grid := p.AppGrid(IdentityMapping(32))
	if len(grid) != 4 || len(grid[0]) != 4 {
		t.Fatal("grid shape wrong")
	}
	// Identity: slots 0-15 = app 1 on tiles 0-7, so rows 0-1 show app 1.
	if grid[0][0] != 1 || grid[3][3] != 2 {
		t.Errorf("grid corners = %d/%d, want 1/2", grid[0][0], grid[3][3])
	}
}

func TestCapacitySAM(t *testing.T) {
	p := capacityProblem(t)
	// SAM over the first app with slots 0..15.
	tiles := make([]mesh.Tile, 16)
	for i := range tiles {
		tiles[i] = mesh.Tile(i)
	}
	assign, cost, err := p.NewSAMSolver().SolveSAM(0, 16, tiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != 16 || cost <= 0 {
		t.Fatal("SAM failed on slotted problem")
	}
}

func TestCapacityLowerBound(t *testing.T) {
	p := capacityProblem(t)
	lb, err := p.LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 {
		t.Error("bound should be positive")
	}
	if obj := p.MaxAPL(IdentityMapping(32)); obj < lb-1e-9 {
		t.Errorf("identity mapping %v beats the bound %v", obj, lb)
	}
}
