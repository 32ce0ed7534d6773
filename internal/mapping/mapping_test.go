package mapping

import (
	"context"
	"math"
	"strings"
	"testing"

	"obm/internal/core"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/stats"
	"obm/internal/workload"
)

func paperProblem(t testing.TB, cfg string) *core.Problem {
	t.Helper()
	lm := model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
	return core.MustNewProblem(lm, workload.MustConfig(cfg))
}

func figure5Problem(t testing.TB) *core.Problem {
	t.Helper()
	lm := model.MustNew(mesh.MustNew(4, 4), model.Figure5Params())
	return core.MustNewProblem(lm, workload.Figure5Workload())
}

func allMappers() []Mapper {
	return []Mapper{
		Global{},
		MonteCarlo{Samples: 200, Seed: 2},
		Annealing{Iters: 2000, Seed: 3},
		SortSelectSwap{},
		SortSelectSwap{DisableSwap: true},
		SortSelectSwap{DisableFinalSAM: true},
		SortSelectSwap{Select: SelectFirst},
		SortSelectSwap{Select: SelectRandom, Seed: 4},
		SortSelectSwap{WindowSize: 2},
		SortSelectSwap{WindowSize: 3},
		SortSelectSwap{MaxStep: 1},
		SortSelectSwap{Passes: 5},
	}
}

// TestAllMappersProduceValidPermutations is the fundamental safety
// property: every algorithm returns a valid thread-to-tile permutation.
func TestAllMappersProduceValidPermutations(t *testing.T) {
	for _, cfg := range []string{"C1", "C5"} {
		p := paperProblem(t, cfg)
		for _, m := range allMappers() {
			got, err := MapAndCheck(context.Background(), m, p)
			if err != nil {
				t.Errorf("%s on %s: %v", m.Name(), cfg, err)
				continue
			}
			if err := got.Validate(p.N()); err != nil {
				t.Errorf("%s on %s: %v", m.Name(), cfg, err)
			}
		}
	}
}

func TestMappersDeterministic(t *testing.T) {
	p := paperProblem(t, "C2")
	for _, m := range allMappers() {
		a, err := m.Map(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Map(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Errorf("%s is not deterministic", m.Name())
				break
			}
		}
	}
}

func TestMapperNames(t *testing.T) {
	cases := []struct {
		m    Mapper
		want string
	}{
		{Global{}, "Global"},
		{MonteCarlo{Samples: 100}, "MC(100)"},
		{Annealing{Iters: 50}, "SA(50)"},
		{SortSelectSwap{}, "SSS"},
		{SortSelectSwap{DisableSwap: true}, "SSS[no-swap]"},
		{SortSelectSwap{DisableSwap: true, DisableFinalSAM: true}, "SSS[select-only]"},
		{SortSelectSwap{DisableFinalSAM: true}, "SSS[no-final-sam]"},
	}
	for _, c := range cases {
		if got := c.m.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
	if !strings.Contains((SortSelectSwap{WindowSize: 3}).Name(), "w=3") {
		t.Error("window size missing from name")
	}
	if !strings.Contains((SortSelectSwap{Select: SelectFirst}).Name(), "sel=first") {
		t.Error("selection strategy missing from name")
	}
	if !strings.Contains((SortSelectSwap{Passes: 5}).Name(), "passes=5") {
		t.Error("pass count missing from name")
	}
}

// TestStochasticMapperFingerprints pins the exact fingerprints of the
// seeded baselines. They are artifact-key inputs, so any change here
// orphans every existing -cachedir entry.
func TestStochasticMapperFingerprints(t *testing.T) {
	cases := []struct {
		m    Mapper
		want string
	}{
		{MonteCarlo{Samples: 1000, Seed: 2}, "mc(samples=1000,seed=2)"},
		{MonteCarlo{Samples: 1000, Seed: 2, Objective: core.GAPL{}}, "mc(samples=1000,seed=2,obj=gapl)"},
		{Annealing{Iters: 5000, Seed: 3}, "sa(iters=5000,t0=0,cooling=0,seed=3)"},
		{Annealing{Iters: 5000, Seed: 3, Objective: core.GAPL{}}, "sa(iters=5000,t0=0,cooling=0,seed=3,obj=gapl)"},
		{Annealing{Iters: 5000, T0: 2.5, Cooling: 0.999, Seed: 3}, "sa(iters=5000,t0=2.5,cooling=0.999,seed=3)"},
	}
	for _, c := range cases {
		if got := c.m.Fingerprint(); got != c.want {
			t.Errorf("Fingerprint = %q, want %q", got, c.want)
		}
	}
}

// TestSSSMultiPassMonotone: extra passes never worsen the objective and
// typically improve it toward SA parity.
func TestSSSMultiPassMonotone(t *testing.T) {
	for _, cfg := range []string{"C1", "C4", "C8"} {
		p := paperProblem(t, cfg)
		one, err := MapAndCheck(context.Background(), SortSelectSwap{}, p)
		if err != nil {
			t.Fatal(err)
		}
		five, err := MapAndCheck(context.Background(), SortSelectSwap{Passes: 5}, p)
		if err != nil {
			t.Fatal(err)
		}
		if p.MaxAPL(five) > p.MaxAPL(one)+1e-9 {
			t.Errorf("%s: 5-pass SSS %.4f worse than 1-pass %.4f",
				cfg, p.MaxAPL(five), p.MaxAPL(one))
		}
	}
}

// TestGlobalIsOptimalForGAPL: no other mapper may achieve a lower g-APL
// than Global (it solves that objective exactly).
func TestGlobalIsOptimalForGAPL(t *testing.T) {
	for _, cfg := range workload.ConfigNames() {
		p := paperProblem(t, cfg)
		gm, err := MapAndCheck(context.Background(), Global{}, p)
		if err != nil {
			t.Fatal(err)
		}
		gAPL := p.GlobalAPL(gm)
		for _, m := range allMappers() {
			got, err := MapAndCheck(context.Background(), m, p)
			if err != nil {
				t.Fatal(err)
			}
			if other := p.GlobalAPL(got); other < gAPL-1e-9 {
				t.Errorf("%s: %s achieved g-APL %.6f < Global's %.6f", cfg, m.Name(), other, gAPL)
			}
		}
	}
}

// TestGlobalOptimalOnFigure5: on the Figure 5 instance the optimal g-APL
// is 10.3375 cycles and Global must find it.
func TestGlobalOptimalOnFigure5(t *testing.T) {
	p := figure5Problem(t)
	m, err := MapAndCheck(context.Background(), Global{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.GlobalAPL(m); math.Abs(got-10.3375) > 1e-9 {
		t.Errorf("Global g-APL = %v, want 10.3375", got)
	}
}

// TestSSSNearOptimalOnFigure5: the Figure 5 instance admits a perfectly
// balanced optimal solution (every APL = 10.3375); SSS should find a
// mapping whose max-APL is within a whisker of it.
func TestSSSNearOptimalOnFigure5(t *testing.T) {
	p := figure5Problem(t)
	m, err := MapAndCheck(context.Background(), SortSelectSwap{}, p)
	if err != nil {
		t.Fatal(err)
	}
	ev := p.Evaluate(m)
	if ev.MaxAPL > 10.3375+0.15 {
		t.Errorf("SSS max-APL = %v, want ~10.3375", ev.MaxAPL)
	}
	if ev.DevAPL > 0.1 {
		t.Errorf("SSS dev-APL = %v, want ~0", ev.DevAPL)
	}
}

// TestSSSBeatsGlobalOnMaxAPL is the paper's headline claim (Figure 9):
// SSS yields lower max-APL than Global on every configuration.
func TestSSSBeatsGlobalOnMaxAPL(t *testing.T) {
	for _, cfg := range workload.ConfigNames() {
		p := paperProblem(t, cfg)
		gm, err := MapAndCheck(context.Background(), Global{}, p)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := MapAndCheck(context.Background(), SortSelectSwap{}, p)
		if err != nil {
			t.Fatal(err)
		}
		g, s := p.MaxAPL(gm), p.MaxAPL(sm)
		if s >= g {
			t.Errorf("%s: SSS max-APL %.3f >= Global %.3f", cfg, s, g)
		}
	}
}

// TestSSSCrushesDevAPL is the paper's Table 4 claim: SSS's dev-APL is a
// small fraction of Global's on every configuration.
func TestSSSCrushesDevAPL(t *testing.T) {
	for _, cfg := range workload.ConfigNames() {
		p := paperProblem(t, cfg)
		gm, err := MapAndCheck(context.Background(), Global{}, p)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := MapAndCheck(context.Background(), SortSelectSwap{}, p)
		if err != nil {
			t.Fatal(err)
		}
		g, s := p.Evaluate(gm).DevAPL, p.Evaluate(sm).DevAPL
		if s > 0.25*g {
			t.Errorf("%s: SSS dev-APL %.4f not << Global %.4f", cfg, s, g)
		}
	}
}

// TestSSSSmallGAPLOverhead: the paper reports <4% g-APL loss vs Global;
// allow 8% for the synthetic workloads.
func TestSSSSmallGAPLOverhead(t *testing.T) {
	for _, cfg := range workload.ConfigNames() {
		p := paperProblem(t, cfg)
		gm, err := MapAndCheck(context.Background(), Global{}, p)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := MapAndCheck(context.Background(), SortSelectSwap{}, p)
		if err != nil {
			t.Fatal(err)
		}
		g, s := p.GlobalAPL(gm), p.GlobalAPL(sm)
		if loss := (s - g) / g; loss > 0.08 {
			t.Errorf("%s: SSS g-APL overhead %.1f%% > 8%%", cfg, 100*loss)
		}
	}
}

// TestGlobalExacerbatesImbalance is the paper's Table 1 observation: the
// Global mapper's dev-APL exceeds the random-mapping average dev-APL.
func TestGlobalExacerbatesImbalance(t *testing.T) {
	for _, cfg := range workload.ConfigNames() {
		p := paperProblem(t, cfg)
		gm, err := MapAndCheck(context.Background(), Global{}, p)
		if err != nil {
			t.Fatal(err)
		}
		gdev := p.Evaluate(gm).DevAPL
		rng := stats.NewRand(5)
		var rdev float64
		const R = 300
		for i := 0; i < R; i++ {
			rdev += p.Evaluate(core.RandomMapping(p.N(), rng)).DevAPL
		}
		rdev /= R
		if gdev <= rdev {
			t.Errorf("%s: Global dev-APL %.3f <= random average %.3f", cfg, gdev, rdev)
		}
	}
}

func TestMonteCarloImprovesWithSamples(t *testing.T) {
	p := paperProblem(t, "C4")
	m1, err := MapAndCheck(context.Background(), MonteCarlo{Samples: 10, Seed: 9}, p)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MapAndCheck(context.Background(), MonteCarlo{Samples: 3000, Seed: 9}, p)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxAPL(m2) > p.MaxAPL(m1) {
		t.Error("MC with more samples should never be worse (same seed stream)")
	}
}

func TestMonteCarloRejectsBadSamples(t *testing.T) {
	p := paperProblem(t, "C1")
	if _, err := (MonteCarlo{Samples: 0}).Map(context.Background(), p); err == nil {
		t.Error("MC with 0 samples accepted")
	}
}

func TestAnnealingRejectsBadIters(t *testing.T) {
	p := paperProblem(t, "C1")
	if _, err := (Annealing{Iters: 0}).Map(context.Background(), p); err == nil {
		t.Error("SA with 0 iterations accepted")
	}
}

func TestAnnealingImprovesOverRandom(t *testing.T) {
	p := paperProblem(t, "C6")
	rm := core.RandomMapping(p.N(), stats.NewRand(11))
	sa, err := MapAndCheck(context.Background(), Annealing{Iters: 20000, Seed: 11}, p)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxAPL(sa) >= p.MaxAPL(rm) {
		t.Errorf("SA max-APL %.3f >= random %.3f", p.MaxAPL(sa), p.MaxAPL(rm))
	}
}

func TestAnnealingMoreItersHelps(t *testing.T) {
	p := paperProblem(t, "C3")
	short, err := MapAndCheck(context.Background(), Annealing{Iters: 100, Seed: 7}, p)
	if err != nil {
		t.Fatal(err)
	}
	long, err := MapAndCheck(context.Background(), Annealing{Iters: 50000, Seed: 7}, p)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxAPL(long) > p.MaxAPL(short)+1e-9 {
		t.Errorf("SA(50000) %.3f worse than SA(100) %.3f", p.MaxAPL(long), p.MaxAPL(short))
	}
}

func TestSSSWindowValidation(t *testing.T) {
	p := paperProblem(t, "C1")
	for _, w := range []int{1, 6, -2} {
		if _, err := (SortSelectSwap{WindowSize: w}).Map(context.Background(), p); err == nil {
			t.Errorf("window size %d accepted", w)
		}
	}
}

// TestSwapProbesCountsSlideWindows: SwapProbes is the exact number of
// permutations one slideWindows pass scores, for every legal window and
// both step caps, and 0 with the swap phase disabled.
func TestSwapProbesCountsSlideWindows(t *testing.T) {
	ctx := context.Background()
	for _, dim := range []int{4, 6, 8, 12, 16} {
		p := tinyProblem(t, dim, dim, 4, uint64(dim))
		sorted := sortedSlotsByTC(p)
		for w := 2; w <= 5; w++ {
			for _, maxStep := range []int{0, 1} {
				s := SortSelectSwap{WindowSize: w, MaxStep: maxStep}
				m := make(core.Mapping, p.N())
				for j := range m {
					m[j] = mesh.Tile(j)
				}
				var sw swapScratch
				got, err := s.slideWindows(ctx, p, m, sorted, w, &sw)
				if err != nil {
					t.Fatal(err)
				}
				if want := s.SwapProbes(p.N()); got != want {
					t.Errorf("n=%d w=%d maxstep=%d: slideWindows scored %d probes, SwapProbes says %d",
						p.N(), w, maxStep, got, want)
				}
			}
		}
		if got := (SortSelectSwap{DisableSwap: true}).SwapProbes(p.N()); got != 0 {
			t.Errorf("n=%d: DisableSwap gives %d probes, want 0", p.N(), got)
		}
	}
	// The published configuration's counts on the scaling experiment's
	// meshes (4x4, 8x8, 12x12, 16x16).
	for n, want := range map[int]int{16: 782, 64: 14168, 144: 73278, 256: 233312} {
		if got := (SortSelectSwap{}).SwapProbes(n); got != want {
			t.Errorf("SwapProbes(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestSSSPhasesMonotone: enabling the swap phase and the final SAM must
// not hurt the objective relative to coarse tuning alone.
func TestSSSPhasesMonotone(t *testing.T) {
	for _, cfg := range []string{"C1", "C3", "C8"} {
		p := paperProblem(t, cfg)
		coarse, err := MapAndCheck(context.Background(), SortSelectSwap{DisableSwap: true, DisableFinalSAM: true}, p)
		if err != nil {
			t.Fatal(err)
		}
		full, err := MapAndCheck(context.Background(), SortSelectSwap{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if p.MaxAPL(full) > p.MaxAPL(coarse)+1e-9 {
			t.Errorf("%s: full SSS %.4f worse than select-only %.4f",
				cfg, p.MaxAPL(full), p.MaxAPL(coarse))
		}
	}
}

func TestPermutations(t *testing.T) {
	for k := 1; k <= 5; k++ {
		perms := permutations(k)
		fact := 1
		for i := 2; i <= k; i++ {
			fact *= i
		}
		if len(perms) != fact {
			t.Fatalf("permutations(%d) returned %d, want %d", k, len(perms), fact)
		}
		seen := make(map[string]bool)
		for _, p := range perms {
			if len(p) != k {
				t.Fatal("wrong length permutation")
			}
			key := ""
			used := make([]bool, k)
			for _, v := range p {
				if v < 0 || v >= k || used[v] {
					t.Fatalf("invalid permutation %v", p)
				}
				used[v] = true
				key += string(rune('0' + v))
			}
			if seen[key] {
				t.Fatalf("duplicate permutation %v", p)
			}
			seen[key] = true
		}
	}
}

func TestSelectFromSections(t *testing.T) {
	list := make([]mesh.Tile, 16)
	for i := range list {
		list[i] = mesh.Tile(i)
	}
	var sel selectScratch
	picked, rest, err := sel.selectFromSections(list, 4, SelectMiddle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) != 4 || len(rest) != 12 {
		t.Fatalf("picked %d rest %d", len(picked), len(rest))
	}
	// Sections are [0,4) [4,8) [8,12) [12,16); middles are 1,5,9,13
	// ((start+end-1)/2).
	want := []mesh.Tile{1, 5, 9, 13}
	for i := range want {
		if picked[i] != want[i] {
			t.Errorf("picked = %v, want %v", picked, want)
			break
		}
	}
	// Picked + rest form the original set.
	all := map[mesh.Tile]bool{}
	for _, tl := range picked {
		all[tl] = true
	}
	for _, tl := range rest {
		if all[tl] {
			t.Fatal("tile in both picked and rest")
		}
		all[tl] = true
	}
	if len(all) != 16 {
		t.Fatal("tiles lost in selection")
	}
	if _, _, err := sel.selectFromSections(list[:2], 4, SelectMiddle, nil); err == nil {
		t.Error("over-selection accepted")
	}
}

func TestSelectStrategyString(t *testing.T) {
	if SelectMiddle.String() != "middle" || SelectFirst.String() != "first" || SelectRandom.String() != "random" {
		t.Error("strategy names wrong")
	}
	if SelectStrategy(9).String() == "" {
		t.Error("unknown strategy has empty name")
	}
}

// TestTrackerConsistency: the incremental tracker must agree with the
// full evaluation after arbitrary swap sequences.
func TestTrackerConsistency(t *testing.T) {
	p := paperProblem(t, "C5")
	rng := stats.NewRand(31)
	m := core.RandomMapping(p.N(), rng)
	tr := newTracker(p, m)
	for i := 0; i < 500; i++ {
		j1, j2 := rng.Intn(p.N()), rng.Intn(p.N())
		if j1 == j2 {
			continue
		}
		want := tr.swapValue(j1, j2)
		tr.swap(j1, j2)
		got := p.MaxAPL(tr.m)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("step %d: swapValue predicted %.9f, actual %.9f", i, want, got)
		}
		if math.Abs(tr.value()-got) > 1e-9 {
			t.Fatalf("step %d: tracker value %.9f, actual %.9f", i, tr.value(), got)
		}
	}
}

func TestTrackerAssign(t *testing.T) {
	p := paperProblem(t, "C7")
	rng := stats.NewRand(37)
	m := core.RandomMapping(p.N(), rng)
	tr := newTracker(p, m)
	for i := 0; i < 100; i++ {
		// Pick 4 distinct threads and permute their tiles.
		perm := rng.Perm(p.N())[:4]
		tiles := make([]mesh.Tile, 4)
		order := rng.Perm(4)
		for x := range perm {
			tiles[x] = tr.m[perm[order[x]]]
		}
		want := tr.assignValue(perm, tiles)
		tr.assign(perm, tiles)
		got := p.MaxAPL(tr.m)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("assignValue predicted %.9f, actual %.9f", want, got)
		}
		if err := tr.m.Validate(p.N()); err != nil {
			t.Fatal(err)
		}
	}
}

// torusProblem builds a C1-style problem on an 8x8 torus.
func torusProblem(t testing.TB) *core.Problem {
	t.Helper()
	msh := mesh.MustNew(8, 8)
	lm, err := model.NewTorus(msh, model.DefaultParams(), model.CornersPlacement(msh))
	if err != nil {
		t.Fatal(err)
	}
	return core.MustNewProblem(lm, workload.MustConfig("C1"))
}

// capacityProblem builds a 2-threads-per-tile problem over two paper
// configurations.
func capacity2Problem(t testing.TB) *core.Problem {
	t.Helper()
	lm := model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
	w := &workload.Workload{Name: "cap2"}
	for _, cfg := range []string{"C1", "C3"} {
		src := workload.MustConfig(cfg)
		w.Apps = append(w.Apps, src.Apps...)
	}
	p, err := core.NewProblemWithCapacity(lm, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAllMappersOnTorusAndCapacity: every algorithm returns a valid
// permutation on the generalized instances, and SSS still beats Global
// on balance.
func TestAllMappersOnTorusAndCapacity(t *testing.T) {
	for name, p := range map[string]*core.Problem{
		"torus":    torusProblem(t),
		"capacity": capacity2Problem(t),
	} {
		for _, m := range allMappers() {
			mp, err := MapAndCheck(context.Background(), m, p)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m.Name(), err)
			}
			if err := mp.Validate(p.N()); err != nil {
				t.Fatalf("%s/%s: %v", name, m.Name(), err)
			}
		}
		gm, err := MapAndCheck(context.Background(), Global{}, p)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := MapAndCheck(context.Background(), SortSelectSwap{}, p)
		if err != nil {
			t.Fatal(err)
		}
		g, s := p.Evaluate(gm), p.Evaluate(sm)
		if !(s.DevAPL < g.DevAPL) {
			t.Errorf("%s: SSS dev %.4f not below Global %.4f", name, s.DevAPL, g.DevAPL)
		}
		if s.MaxAPL > g.MaxAPL+1e-9 {
			t.Errorf("%s: SSS max %.4f above Global %.4f", name, s.MaxAPL, g.MaxAPL)
		}
	}
}

// TestTorusShrinksProblem: the random-mapping dev-APL on a torus is far
// below the mesh's (the imbalance is mostly a mesh-edge artifact).
func TestTorusShrinksProblem(t *testing.T) {
	meshP := paperProblem(t, "C1")
	torusP := torusProblem(t)
	rng := stats.NewRand(7)
	devOf := func(p *core.Problem) float64 {
		var dev float64
		for i := 0; i < 100; i++ {
			dev += p.Evaluate(core.RandomMapping(p.N(), rng)).DevAPL
		}
		return dev / 100
	}
	meshDev := devOf(meshP)
	torusDev := devOf(torusP)
	if !(torusDev < meshDev*0.6) {
		t.Errorf("torus random dev %.3f not well below mesh %.3f", torusDev, meshDev)
	}
}
