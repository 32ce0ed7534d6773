package core

import (
	"testing"
	"testing/quick"

	"obm/internal/stats"
)

// TestEvaluateBatchMatchesEvaluate pins the batch evaluator to the
// scalar path with a quick.Check property: for any seed and batch
// size, every objective scores every mapping of the batch to exactly
// (==, not approximately) the value the per-mapping Scorer produces —
// which TestObjectivesMatchEvaluation in turn pins to Evaluate. Both
// the SoA table path and the on-the-fly fallback are checked.
func TestEvaluateBatchMatchesEvaluate(t *testing.T) {
	p := objTestProblem(t)
	objs := append(Objectives(), Weighted{Max: 1, Dev: 2.5}, nil)
	property := func(seed uint64, size uint8) bool {
		batch := int(size%32) + 1
		for _, obj := range objs {
			be := p.BatchEvaluator(obj)
			sc := p.Scorer(obj)
			fallback := p.BatchEvaluator(obj)
			fallback.cost = nil // force the large-N path
			rng := stats.NewRand(seed)
			ms := make([]Mapping, batch)
			for k := range ms {
				ms[k] = RandomMapping(p.N(), rng)
			}
			out := make([]float64, batch)
			outFB := make([]float64, batch)
			be.EvaluateBatch(ms, out)
			fallback.EvaluateBatch(ms, outFB)
			for k, m := range ms {
				want := sc.Score(m)
				if out[k] != want {
					t.Logf("obj %v: batch[%d] = %v, scorer = %v", obj, k, out[k], want)
					return false
				}
				if outFB[k] != want {
					t.Logf("obj %v: fallback[%d] = %v, scorer = %v", obj, k, outFB[k], want)
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
