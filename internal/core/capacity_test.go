package core

import (
	"math"
	"testing"

	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/workload"
)

// capacityProblem: 32 threads (2 apps x 16) on a 4x4 chip with 2
// threads per tile, built as a latency table over 32 places where
// place 2t+k repeats tile t's TC and TM. The 4x8 mesh only numbers the
// places.
func capacityProblem(t *testing.T) (*Problem, *model.LatencyModel) {
	t.Helper()
	chip := model.MustNew(mesh.MustNew(4, 4), model.DefaultParams())
	var tc, tm []float64
	for tile := range mesh.Tile(chip.NumTiles()) {
		tc = append(tc, chip.TC(tile), chip.TC(tile))
		tm = append(tm, chip.TM(tile), chip.TM(tile))
	}
	lm, err := model.NewTable(mesh.MustNew(4, 8), chip.Params(), tc, tm)
	if err != nil {
		t.Fatal(err)
	}
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
	p, err := NewProblem(lm, w)
	if err != nil {
		t.Fatal(err)
	}
	return p, chip
}

func TestCapacitySlotGeometry(t *testing.T) {
	p, chip := capacityProblem(t)
	lm := p.Model()
	if p.N() != 32 || lm.NumTiles() != 32 {
		t.Fatalf("N=%d places=%d", p.N(), lm.NumTiles())
	}
	// Places 2t and 2t+1 both carry tile t's TC and TM.
	for s := range mesh.Tile(32) {
		tile := s / 2
		if lm.TC(s) != chip.TC(tile) || lm.TM(s) != chip.TM(tile) {
			t.Fatalf("place %d: TC/TM %v/%v, tile %d has %v/%v",
				s, lm.TC(s), lm.TM(s), tile, chip.TC(tile), chip.TM(tile))
		}
	}
}

func TestCapacityThreadCostConsistent(t *testing.T) {
	p, chip := capacityProblem(t)
	for j := 0; j < p.N(); j++ {
		for s := 0; s < p.N(); s++ {
			tile := mesh.Tile(s / 2)
			want := p.CacheRate(j)*chip.TC(tile) + p.MemRate(j)*chip.TM(tile)
			if got := p.ThreadCost(j, mesh.Tile(s)); math.Abs(got-want) > 1e-12 {
				t.Fatalf("ThreadCost(%d,%d) = %v, want %v", j, s, got, want)
			}
		}
	}
}

func TestCapacityEvaluateMatchesManual(t *testing.T) {
	p, chip := capacityProblem(t)
	m := IdentityMapping(32)
	ev := p.Evaluate(m)
	// Manual APL of app 0: threads 0..15 on places 0..15 (tiles 0..7).
	var num, den float64
	for j := 0; j < 16; j++ {
		tile := m[j] / 2
		num += p.CacheRate(j)*chip.TC(tile) + p.MemRate(j)*chip.TM(tile)
		den += p.CacheRate(j) + p.MemRate(j)
	}
	if math.Abs(ev.APLs[0]-num/den) > 1e-9 {
		t.Errorf("APL = %v, manual %v", ev.APLs[0], num/den)
	}
	if ev.MaxAPL <= 0 || ev.GlobalAPL <= 0 {
		t.Error("metrics not computed")
	}
}

func TestCapacitySAM(t *testing.T) {
	p, _ := capacityProblem(t)
	// SAM over the first app with places 0..15.
	tiles := make([]mesh.Tile, 16)
	for i := range tiles {
		tiles[i] = mesh.Tile(i)
	}
	assign, cost, err := p.NewSAMSolver().SolveSAM(0, 16, tiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != 16 || cost <= 0 {
		t.Fatal("SAM failed on the two-threads-per-tile problem")
	}
}
