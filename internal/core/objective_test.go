package core

import (
	"math"
	"strings"
	"testing"

	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/stats"
	"obm/internal/workload"
)

func objTestProblem(t testing.TB) *Problem {
	t.Helper()
	lm := model.MustNew(mesh.MustNew(4, 4), model.DefaultParams())
	rng := stats.NewRand(42)
	w := &workload.Workload{Name: "obj"}
	for a := 0; a < 4; a++ {
		app := workload.Application{Name: "a"}
		for j := 0; j < 4; j++ {
			c := 1 + rng.Float64()*10
			app.Threads = append(app.Threads, workload.Thread{CacheRate: c, MemRate: 0.3 * c})
		}
		w.Apps = append(w.Apps, app)
	}
	return MustNewProblem(lm, w)
}

// TestObjectivesMatchEvaluation: each base objective computed from the
// numerators agrees with the corresponding Evaluation metric (the
// reporting path), bit-for-bit for max/dev/global.
func TestObjectivesMatchEvaluation(t *testing.T) {
	p := objTestProblem(t)
	rng := stats.NewRand(7)
	num := make([]float64, p.NumApps())
	for trial := 0; trial < 50; trial++ {
		m := RandomMapping(p.N(), rng)
		ev := p.Evaluate(m)
		p.Numerators(m, num)
		if got := (MaxAPL{}).Value(p, num); got != ev.MaxAPL {
			t.Fatalf("MaxAPL objective %v != Evaluation %v", got, ev.MaxAPL)
		}
		if got := (DevAPL{}).Value(p, num); got != ev.DevAPL {
			t.Fatalf("DevAPL objective %v != Evaluation %v", got, ev.DevAPL)
		}
		if got := (GAPL{}).Value(p, num); math.Abs(got-ev.GlobalAPL) > 1e-12 {
			t.Fatalf("GAPL objective %v != Evaluation %v", got, ev.GlobalAPL)
		}
		if got := (MinMaxRatio{}).Value(p, num); math.Abs(got-(1-ev.MinMaxRatio)) > 1e-12 {
			t.Fatalf("MinMaxRatio cost %v != 1-ratio %v", got, 1-ev.MinMaxRatio)
		}
	}
}

// TestScorerMatchesScalarPaths: Scorer.Score equals the allocation-free
// Problem.MaxAPL and Evaluate's g-APL, and allocates nothing.
func TestScorerMatchesScalarPaths(t *testing.T) {
	p := objTestProblem(t)
	rng := stats.NewRand(3)
	maxSc := p.Scorer(nil)
	gSc := p.Scorer(GAPL{})
	for trial := 0; trial < 20; trial++ {
		m := RandomMapping(p.N(), rng)
		if got, want := maxSc.Score(m), p.MaxAPL(m); got != want {
			t.Fatalf("Scorer(max) %v != Problem.MaxAPL %v", got, want)
		}
		if got, want := gSc.Score(m), p.Evaluate(m).GlobalAPL; math.Abs(got-want) > 1e-12 {
			t.Fatalf("Scorer(gapl) %v != Evaluate.GlobalAPL %v", got, want)
		}
	}
	m := IdentityMapping(p.N())
	if allocs := testing.AllocsPerRun(100, func() { maxSc.Score(m) }); allocs != 0 {
		t.Errorf("Scorer.Score allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.MaxAPL(m) }); allocs != 0 {
		t.Errorf("Problem.MaxAPL allocates %v per run, want 0", allocs)
	}
}

// TestRandomMappingIntoMatchesRandomMapping: the in-place variant draws
// the identical permutation from an equal generator state.
func TestRandomMappingIntoMatchesRandomMapping(t *testing.T) {
	for _, n := range []int{1, 2, 16, 64} {
		a := RandomMapping(n, stats.NewRand(99))
		b := make(Mapping, n)
		RandomMappingInto(b, stats.NewRand(99))
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("n=%d: RandomMappingInto diverges at %d: %v vs %v", n, j, a[j], b[j])
			}
		}
	}
}

func TestParseObjective(t *testing.T) {
	cases := []struct {
		in   string
		want Objective
	}{
		{"", DefaultObjective},
		{"max", MaxAPL{}},
		{"MaxAPL", MaxAPL{}},
		{"dev", DevAPL{}},
		{"dev-apl", DevAPL{}},
		{"global", GAPL{}},
		{"gapl", GAPL{}},
		{"ratio", MinMaxRatio{}},
		{"minmax", MinMaxRatio{}},
		{"weighted:max=1,dev=2", Weighted{Max: 1, Dev: 2}},
		{"weighted:global=0.5,ratio=3", Weighted{Global: 0.5, Ratio: 3}},
	}
	for _, c := range cases {
		got, err := ParseObjective(c.in)
		if err != nil {
			t.Errorf("ParseObjective(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseObjective(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"bogus", "weighted:", "weighted:max", "weighted:max=x", "weighted:foo=1", "weighted:max=0",
		"weighted:max=nan", "weighted:max=NaN", "weighted:max=inf", "weighted:dev=-inf", "weighted:max=1,energy=+Inf", "weighted:max=1e13"} {
		if _, err := ParseObjective(bad); err == nil {
			t.Errorf("ParseObjective(%q) accepted", bad)
		}
	}
}

// TestObjectiveFingerprintsDistinct: every named objective (and a
// weighted composite) carries a distinct fingerprint, and the default
// resolves to max-APL.
func TestObjectiveFingerprintsDistinct(t *testing.T) {
	objs := append(Objectives(), Weighted{Max: 1, Dev: 2}, Weighted{Max: 1, Dev: 3})
	seen := map[string]string{}
	for _, o := range objs {
		fp := o.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("objectives %s and %s share fingerprint %q", prev, o.Name(), fp)
		}
		seen[fp] = o.Name()
	}
	if !IsDefaultObjective(nil) || !IsDefaultObjective(MaxAPL{}) || IsDefaultObjective(DevAPL{}) {
		t.Error("IsDefaultObjective wrong")
	}
	if ObjectiveOrDefault(nil) != DefaultObjective {
		t.Error("ObjectiveOrDefault(nil) != DefaultObjective")
	}
	if !strings.Contains((Weighted{Max: 1, Dev: 2}).Fingerprint(), "max=1") {
		t.Error("weighted fingerprint misses weights")
	}
}

// TestGAPLObjectiveAgreesWithGlobalOptimum: optimizing GAPL and the
// g-APL metric are the same thing — on any mapping the cost equals the
// reported metric (denominator is mapping-independent).
func TestGAPLObjectiveZeroRate(t *testing.T) {
	lm := model.MustNew(mesh.MustNew(2, 2), model.DefaultParams())
	w := &workload.Workload{Name: "idle", Apps: []workload.Application{{
		Name:    "z",
		Threads: make([]workload.Thread, 4),
	}}}
	p := MustNewProblem(lm, w)
	num := make([]float64, 1)
	if v := (GAPL{}).Value(p, num); v != 0 {
		t.Errorf("zero-rate GAPL = %v", v)
	}
	if v := (MaxAPL{}).Value(p, num); v != 0 {
		t.Errorf("zero-rate MaxAPL = %v", v)
	}
	if v := (MinMaxRatio{}).Value(p, num); v != 0 {
		t.Errorf("zero-rate MinMaxRatio cost = %v", v)
	}
	if v := (DevAPL{}).Value(p, num); v != 0 {
		t.Errorf("zero-rate DevAPL = %v", v)
	}
}
