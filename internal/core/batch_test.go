package core

import (
	"testing"
	"testing/quick"

	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/stats"
	"obm/internal/workload"
)

// TestEvaluateBatchMatchesEvaluate pins the batch evaluator to the
// scalar path with a quick.Check property: for any seed and batch
// size, every objective scores every mapping of the batch to exactly
// (==, not approximately) the value the per-mapping Scorer produces —
// which TestObjectivesMatchEvaluation in turn pins to Evaluate.
func TestEvaluateBatchMatchesEvaluate(t *testing.T) {
	p := objTestProblem(t)
	objs := append(Objectives(), Weighted{Max: 1, Dev: 2.5}, nil)
	property := func(seed uint64, size uint8) bool {
		batch := int(size%32) + 1
		for _, obj := range objs {
			be := p.BatchEvaluator(obj)
			sc := p.Scorer(obj)
			rng := stats.NewRand(seed)
			ms := make([]Mapping, batch)
			for k := range ms {
				ms[k] = RandomMapping(p.N(), rng)
			}
			out := make([]float64, batch)
			be.EvaluateBatch(ms, out)
			for k, m := range ms {
				want := sc.Score(m)
				if out[k] != want {
					t.Logf("obj %v: batch[%d] = %v, scorer = %v", obj, k, out[k], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestEvaluateBatchEvaluateParity spot-checks against Evaluate's
// reported MaxAPL directly (the default objective), closing the loop
// batch -> scorer -> Evaluate with an end-to-end comparison.
func TestEvaluateBatchEvaluateParity(t *testing.T) {
	p := objTestProblem(t)
	be := p.BatchEvaluator(nil)
	rng := stats.NewRand(99)
	ms := make([]Mapping, 16)
	for k := range ms {
		ms[k] = RandomMapping(p.N(), rng)
	}
	out := make([]float64, len(ms))
	be.EvaluateBatch(ms, out)
	for k, m := range ms {
		if want := p.Evaluate(m).MaxAPL; out[k] != want {
			t.Errorf("batch[%d] = %v, Evaluate.MaxAPL = %v", k, out[k], want)
		}
	}
}

// TestEvaluateBatchNoAlloc: steady-state batches allocate nothing.
func TestEvaluateBatchNoAlloc(t *testing.T) {
	p := objTestProblem(t)
	be := p.BatchEvaluator(nil)
	rng := stats.NewRand(5)
	ms := make([]Mapping, 8)
	for k := range ms {
		ms[k] = RandomMapping(p.N(), rng)
	}
	out := make([]float64, len(ms))
	be.EvaluateBatch(ms, out) // warm the numerator buffer
	if allocs := testing.AllocsPerRun(50, func() { be.EvaluateBatch(ms, out) }); allocs != 0 {
		t.Errorf("EvaluateBatch allocates %v per run, want 0", allocs)
	}
}

// randomAveragesProblems returns the problems the random baseline is
// drawn for: C1–C8 on the paper's 8x8 mesh, C1–C8 on the 8x8 torus with
// corner controllers, and C1's and C3's 128 threads on an 8x16 mesh.
func randomAveragesProblems(t *testing.T) (mesh64, torus64 []*Problem, mesh128 *Problem) {
	t.Helper()
	msh := mesh.MustNew(8, 8)
	torus, err := model.NewTorus(msh, model.DefaultParams(), model.CornersPlacement(msh))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range workload.ConfigNames() {
		mesh64 = append(mesh64, paperProblem(t, cfg))
		torus64 = append(torus64, MustNewProblem(torus, workload.MustConfig(cfg)))
	}
	w := &workload.Workload{Name: "wide"}
	for _, cfg := range []string{"C1", "C3"} {
		w.Apps = append(w.Apps, workload.MustConfig(cfg).Apps...)
	}
	mesh128 = MustNewProblem(model.MustNew(mesh.MustNew(8, 16), model.DefaultParams()), w)
	return mesh64, torus64, mesh128
}

// TestRandomAveragesMatchesReference pins the shared-draw kernel to the
// loop it replaced: a fresh NewRand(seed) per problem, Evaluate on each
// RandomMapping, sums in draw order divided by draws. Equality is ==,
// field by field.
func TestRandomAveragesMatchesReference(t *testing.T) {
	mesh64, torus64, mesh128 := randomAveragesProblems(t)
	groups := map[string][]*Problem{
		"mesh":       mesh64,
		"mesh+torus": append(append([]*Problem(nil), mesh64...), torus64...),
		"mesh128":    {mesh128},
	}
	for name, ps := range groups {
		for seed := uint64(1); seed <= 5; seed++ {
			for _, draws := range []int{1, 257} {
				got, err := RandomAverages(ps, seed, draws)
				if err != nil {
					t.Fatal(err)
				}
				for k, p := range ps {
					var want RandomAverage
					rng := stats.NewRand(seed)
					for d := 0; d < draws; d++ {
						ev := p.Evaluate(RandomMapping(p.N(), rng))
						want.GlobalAPL += ev.GlobalAPL
						want.MaxAPL += ev.MaxAPL
						want.DevAPL += ev.DevAPL
					}
					want.GlobalAPL /= float64(draws)
					want.MaxAPL /= float64(draws)
					want.DevAPL /= float64(draws)
					if got[k] != want {
						t.Errorf("%s problem %d seed %d draws %d: got %+v, want %+v", name, k, seed, draws, got[k], want)
					}
				}
			}
		}
	}
}

// TestRandomAveragesErrors: the kernel refuses problems of different
// sizes (one permutation cannot serve both) and a draw count that would
// divide by zero.
func TestRandomAveragesErrors(t *testing.T) {
	mesh64, _, mesh128 := randomAveragesProblems(t)
	if _, err := RandomAverages([]*Problem{mesh64[0], mesh128}, 1, 10); err == nil {
		t.Error("problems with N 64 and 128 accepted")
	}
	for _, draws := range []int{0, -1} {
		if _, err := RandomAverages(mesh64[:1], 1, draws); err == nil {
			t.Errorf("draws %d accepted", draws)
		}
	}
}

// TestRandomAveragesNoAllocPerDraw: the allocation count does not grow
// with the number of draws.
func TestRandomAveragesNoAllocPerDraw(t *testing.T) {
	mesh64, _, _ := randomAveragesProblems(t)
	allocs := func(draws int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := RandomAverages(mesh64, 1, draws); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(500); many != one {
		t.Errorf("RandomAverages allocates %v at 1 draw and %v at 500", one, many)
	}
}
