package core

import (
	"math"
	"testing"

	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/stats"
	"obm/internal/workload"
)

func TestSolveSAMValidation(t *testing.T) {
	p := figure5Problem(t)
	sam := p.NewSAMSolver()
	tiles := []mesh.Tile{0, 1, 2, 3}
	if _, _, err := sam.SolveSAM(0, 0, nil); err == nil {
		t.Error("empty range accepted")
	}
	if _, _, err := sam.SolveSAM(0, 4, tiles[:2]); err == nil {
		t.Error("fewer tiles than threads accepted")
	}
	if _, _, err := sam.SolveSAM(-1, 3, tiles); err == nil {
		t.Error("negative lo accepted")
	}
	if _, _, err := sam.SolveSAM(13, 17, tiles); err == nil {
		t.Error("hi beyond N accepted")
	}
	if _, _, err := sam.Assign(p.Model(), []float64{1, 2}, []float64{1}, tiles); err == nil {
		t.Error("cache and memory rates of different lengths accepted")
	}
	if assign, _, err := sam.SolveSAM(0, 2, tiles); err != nil || len(assign) != 2 {
		t.Errorf("more tiles than threads: assign %v, err %v; want 2 tiles", assign, err)
	}
}

// TestSAMOptimalOnFigure5 checks that SAM places the heaviest thread on
// the lowest-latency tile: for one Figure 5 application given a corner,
// two edges, and a center of the 4x4 mesh, the optimal APL is 10.3375.
func TestSAMOptimalOnFigure5(t *testing.T) {
	p := figure5Problem(t)
	msh := p.Model().Mesh()
	tiles := []mesh.Tile{
		msh.TileAt(0, 0), // corner
		msh.TileAt(0, 1), // edge
		msh.TileAt(1, 0), // edge
		msh.TileAt(1, 1), // center
	}
	assign, cost, err := p.NewSAMSolver().SolveSAM(0, 4, tiles)
	if err != nil {
		t.Fatal(err)
	}
	apl := cost / p.AppWeight(0)
	if math.Abs(apl-10.3375) > 1e-9 {
		t.Errorf("SAM APL = %v, want 10.3375", apl)
	}
	// Heaviest thread (index 3, rate 0.4) must get the center tile.
	if assign[3] != msh.TileAt(1, 1) {
		t.Errorf("heaviest thread on tile %v, want center", assign[3])
	}
	// Lightest thread must get the corner.
	if assign[0] != msh.TileAt(0, 0) {
		t.Errorf("lightest thread on tile %v, want corner", assign[0])
	}
}

// TestSAMMatchesBruteForce verifies SAM optimality against exhaustive
// search on random sub-instances with 5 to 8 candidate tiles for 5
// threads.
func TestSAMMatchesBruteForce(t *testing.T) {
	lm := model.MustNew(mesh.MustNew(4, 4), model.DefaultParams())
	rng := stats.NewRand(77)
	for trial := 0; trial < 30; trial++ {
		w := &workload.Workload{Name: "bf", Apps: []workload.Application{{
			Name: "a",
			Threads: []workload.Thread{
				{CacheRate: rng.Float64() * 10, MemRate: rng.Float64()},
				{CacheRate: rng.Float64() * 10, MemRate: rng.Float64()},
				{CacheRate: rng.Float64() * 10, MemRate: rng.Float64()},
				{CacheRate: rng.Float64() * 10, MemRate: rng.Float64()},
				{CacheRate: rng.Float64() * 10, MemRate: rng.Float64()},
			},
		}}}
		if err := w.PadTo(16); err != nil {
			t.Fatal(err)
		}
		p := MustNewProblem(lm, w)
		// Random distinct candidate tiles.
		perm := rng.Perm(16)
		tiles := make([]mesh.Tile, 5+trial%4)
		for i := range tiles {
			tiles[i] = mesh.Tile(perm[i])
		}
		_, cost, err := p.NewSAMSolver().SolveSAM(0, 5, tiles)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceSAM(p, 0, 5, tiles)
		if math.Abs(cost-want) > 1e-9 {
			t.Fatalf("trial %d: SAM cost %v, brute force %v", trial, cost, want)
		}
	}
}

// bruteForceSAM tries every assignment of the threads [lo, hi) to
// distinct tiles: each ordering of the tiles, of which the first hi-lo
// are taken.
func bruteForceSAM(p *Problem, lo, hi int, tiles []mesh.Tile) float64 {
	n := hi - lo
	perm := make([]int, len(tiles))
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			var s float64
			for x, y := range perm[:n] {
				s += p.ThreadCost(lo+x, tiles[y])
			}
			if s < best {
				best = s
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

func TestSAMSolverSolveInto(t *testing.T) {
	p := figure5Problem(t)
	m := IdentityMapping(16)
	msh := p.Model().Mesh()
	tiles := []mesh.Tile{msh.TileAt(0, 0), msh.TileAt(0, 1), msh.TileAt(1, 0), msh.TileAt(1, 1)}
	apl, err := p.NewSAMSolver().SolveInto(m, 0, tiles)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(apl-10.3375) > 1e-9 {
		t.Errorf("APL = %v", apl)
	}
	// The mapping now holds the assignment for app 0's threads.
	seen := map[mesh.Tile]bool{}
	for j := 0; j < 4; j++ {
		seen[m[j]] = true
	}
	for _, tl := range tiles {
		if !seen[tl] {
			t.Errorf("tile %v not assigned", tl)
		}
	}
}

func TestReoptimizeAppNeverWorsens(t *testing.T) {
	lm := model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
	w := workload.MustConfig("C1")
	p := MustNewProblem(lm, w)
	rng := stats.NewRand(123)
	for trial := 0; trial < 10; trial++ {
		m := RandomMapping(64, rng)
		before := p.Evaluate(m).APLs
		sam := p.NewSAMSolver()
		for i := 0; i < p.NumApps(); i++ {
			if err := sam.ReoptimizeApp(m, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Validate(64); err != nil {
			t.Fatal(err)
		}
		for i, after := range p.Evaluate(m).APLs {
			if after > before[i]+1e-9 {
				t.Fatalf("app %d worsened: %v -> %v", i, before[i], after)
			}
		}
	}
}
