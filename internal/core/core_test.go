package core

import (
	"math"
	"testing"
	"testing/quick"

	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/stats"
	"obm/internal/workload"
)

// figure5Problem is the paper's Figure 5 worked example: 4x4 mesh,
// td_r=3, td_w=1, td_s=1, four 4-thread apps with cache rates 0.1..0.4.
func figure5Problem(t *testing.T) *Problem {
	t.Helper()
	lm := model.MustNew(mesh.MustNew(4, 4), model.Figure5Params())
	p, err := NewProblem(lm, workload.Figure5Workload())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func paperProblem(t *testing.T, cfg string) *Problem {
	t.Helper()
	lm := model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
	return MustNewProblem(lm, workload.MustConfig(cfg))
}

func TestNewProblemValidation(t *testing.T) {
	lm := model.MustNew(mesh.MustNew(4, 4), model.DefaultParams())
	if _, err := NewProblem(nil, workload.Figure5Workload()); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewProblem(lm, nil); err == nil {
		t.Error("nil workload accepted")
	}
	small := &workload.Workload{Apps: []workload.Application{
		{Name: "a", Threads: make([]workload.Thread, 3)},
	}}
	if _, err := NewProblem(lm, small); err == nil {
		t.Error("thread/tile mismatch accepted")
	}
	bad := &workload.Workload{}
	if _, err := NewProblem(lm, bad); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestProblemAccessors(t *testing.T) {
	p := figure5Problem(t)
	if p.N() != 16 || p.NumApps() != 4 {
		t.Fatalf("N=%d A=%d", p.N(), p.NumApps())
	}
	if p.CacheRate(0) != 0.1 || p.CacheRate(3) != 0.4 {
		t.Error("cache rates not flattened in order")
	}
	if p.MemRate(0) != 0 {
		t.Error("figure5 mem rate should be 0")
	}
	if p.AppOfThread(0) != 0 || p.AppOfThread(4) != 1 || p.AppOfThread(15) != 3 {
		t.Error("AppOfThread wrong")
	}
	lo, hi := p.AppThreads(2)
	if lo != 8 || hi != 12 {
		t.Errorf("AppThreads(2) = [%d,%d)", lo, hi)
	}
	if math.Abs(p.AppWeight(0)-1.0) > 1e-12 {
		t.Errorf("AppWeight = %v, want 1.0", p.AppWeight(0))
	}
	if math.Abs(p.TotalRate()-4.0) > 1e-12 {
		t.Errorf("TotalRate = %v, want 4.0", p.TotalRate())
	}
}

func TestMappingValidate(t *testing.T) {
	if err := IdentityMapping(4).Validate(4); err != nil {
		t.Errorf("identity rejected: %v", err)
	}
	if err := (Mapping{0, 1}).Validate(4); err == nil {
		t.Error("short mapping accepted")
	}
	if err := (Mapping{0, 0, 2, 3}).Validate(4); err == nil {
		t.Error("duplicate tile accepted")
	}
	if err := (Mapping{0, 1, 2, 9}).Validate(4); err == nil {
		t.Error("out-of-range tile accepted")
	}
	if err := (Mapping{0, 1, 2, -1}).Validate(4); err == nil {
		t.Error("negative tile accepted")
	}
}

func TestMappingClone(t *testing.T) {
	m := IdentityMapping(4)
	c := m.Clone()
	c[0] = 3
	if m[0] != 0 {
		t.Error("Clone shares storage")
	}
}

func TestEvaluationClone(t *testing.T) {
	e := Evaluation{APLs: []float64{1.5, 2.5}, MaxAPL: 2.5, DevAPL: 0.5, GlobalAPL: 2, MinMaxRatio: 0.6}
	c := e.Clone()
	c.APLs[0] = -1
	if e.APLs[0] != 1.5 {
		t.Error("Clone shares APL storage")
	}
	if c.MaxAPL != e.MaxAPL || c.DevAPL != e.DevAPL || c.GlobalAPL != e.GlobalAPL || c.MinMaxRatio != e.MinMaxRatio {
		t.Error("Clone dropped scalar fields")
	}
	var zero Evaluation
	if got := zero.Clone(); got.APLs != nil {
		t.Error("Clone of zero evaluation should keep APLs nil")
	}
}

func TestRandomMappingValid(t *testing.T) {
	rng := stats.NewRand(5)
	for i := 0; i < 50; i++ {
		m := RandomMapping(64, rng)
		if err := m.Validate(64); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRandomMappingIntoMatchesShuffle: the inlined Fisher–Yates draws
// the same permutation as rng.Shuffle over the identity and leaves the
// generator in the same state.
func TestRandomMappingIntoMatchesShuffle(t *testing.T) {
	for _, n := range []int{1, 2, 64, 128} {
		for seed := uint64(0); seed < 8; seed++ {
			got, want := make(Mapping, n), IdentityMapping(n)
			rng, ref := stats.NewRand(seed), stats.NewRand(seed)
			for round := 0; round < 3; round++ {
				RandomMappingInto(got, rng)
				for j := range want {
					want[j] = mesh.Tile(j)
				}
				ref.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("n=%d seed=%d round %d: got %v, want %v", n, seed, round, got, want)
					}
				}
			}
			if rng.Uint64() != ref.Uint64() {
				t.Errorf("n=%d seed=%d: generator states diverged", n, seed)
			}
		}
	}
}

func TestInverse(t *testing.T) {
	m := Mapping{2, 0, 1}
	inv := m.InverseOn(3)
	want := []int{1, 2, 0}
	for i := range want {
		if inv[i] != want[i] {
			t.Fatalf("inverse = %v, want %v", inv, want)
		}
	}
}

// TestFigure5Evaluation reproduces the paper's Figure 5 APLs through the
// full Problem/Mapping machinery.
func TestFigure5Evaluation(t *testing.T) {
	p := figure5Problem(t)
	msh := p.Model().Mesh()

	// Optimal mapping (Fig. 5a): each app gets a quadrant; within each
	// 2x2 quadrant the heaviest thread (rate 0.4) takes the center-most
	// tile, and the lightest (0.1) the corner.
	m := make(Mapping, 16)
	quadrant := [][2]int{{0, 0}, {0, 2}, {2, 0}, {2, 2}}
	for a := 0; a < 4; a++ {
		r0, c0 := quadrant[a][0], quadrant[a][1]
		// Order tiles of the quadrant from corner-most to center-most.
		corner := msh.TileAt(closer(r0, 0, 3), closer(c0, 0, 3))
		center := msh.TileAt(middle(r0), middle(c0))
		edge1 := msh.TileAt(closer(r0, 0, 3), middle(c0))
		edge2 := msh.TileAt(middle(r0), closer(c0, 0, 3))
		m[a*4+0] = corner // rate 0.1
		m[a*4+1] = edge1  // rate 0.2
		m[a*4+2] = edge2  // rate 0.3
		m[a*4+3] = center // rate 0.4
	}
	if err := m.Validate(16); err != nil {
		t.Fatal(err)
	}
	ev := p.Evaluate(m)
	for i, apl := range ev.APLs {
		if math.Abs(apl-10.3375) > 1e-9 {
			t.Errorf("app %d APL = %v, want 10.3375", i+1, apl)
		}
	}
	if math.Abs(ev.MaxAPL-10.3375) > 1e-9 {
		t.Errorf("MaxAPL = %v", ev.MaxAPL)
	}
	if ev.DevAPL > 1e-9 {
		t.Errorf("DevAPL = %v, want 0", ev.DevAPL)
	}
	if math.Abs(ev.MinMaxRatio-1) > 1e-9 {
		t.Errorf("MinMaxRatio = %v, want 1", ev.MinMaxRatio)
	}
	if math.Abs(ev.GlobalAPL-10.3375) > 1e-9 {
		t.Errorf("GlobalAPL = %v", ev.GlobalAPL)
	}

	// Equal-but-bad mapping (Fig. 5b): reverse the thread order within
	// each quadrant so the heaviest thread sits on the corner.
	bad := make(Mapping, 16)
	for a := 0; a < 4; a++ {
		bad[a*4+0] = m[a*4+3]
		bad[a*4+1] = m[a*4+2]
		bad[a*4+2] = m[a*4+1]
		bad[a*4+3] = m[a*4+0]
	}
	evBad := p.Evaluate(bad)
	for i, apl := range evBad.APLs {
		if math.Abs(apl-11.5375) > 1e-9 {
			t.Errorf("bad mapping app %d APL = %v, want 11.5375", i+1, apl)
		}
	}
	if evBad.DevAPL > 1e-9 {
		t.Errorf("bad mapping DevAPL = %v, want 0 (equally bad!)", evBad.DevAPL)
	}
}

func closer(base, lo, hi int) int {
	if base == 0 {
		return lo
	}
	return hi
}

func middle(base int) int {
	if base == 0 {
		return 1
	}
	return 2
}

func TestEvaluateMatchesAPL(t *testing.T) {
	p := paperProblem(t, "C1")
	rng := stats.NewRand(3)
	m := RandomMapping(p.N(), rng)
	ev := p.Evaluate(m)
	if math.Abs(p.MaxAPL(m)-ev.MaxAPL) > 1e-12 {
		t.Error("MaxAPL accessor disagrees")
	}
}

func TestIdleAppExcluded(t *testing.T) {
	lm := model.MustNew(mesh.MustNew(4, 4), model.DefaultParams())
	w := &workload.Workload{Name: "partial", Apps: []workload.Application{
		{Name: "a", Threads: []workload.Thread{{CacheRate: 1}, {CacheRate: 2}}},
	}}
	if err := w.PadTo(16); err != nil {
		t.Fatal(err)
	}
	p := MustNewProblem(lm, w)
	m := IdentityMapping(16)
	ev := p.Evaluate(m)
	if ev.APLs[1] != 0 {
		t.Errorf("idle app APL = %v, want 0", ev.APLs[1])
	}
	if ev.MaxAPL != ev.APLs[0] {
		t.Error("idle app should not dominate MaxAPL")
	}
	if ev.DevAPL != 0 {
		t.Errorf("DevAPL over a single active app = %v, want 0", ev.DevAPL)
	}
}

// Property: g-APL is invariant under relabeling of which thread within an
// application holds which tile... it is NOT (threads have distinct
// rates); but the APL is invariant when two equal-rate threads of the
// same application swap tiles.
func TestEqualThreadSwapInvariance(t *testing.T) {
	lm := model.MustNew(mesh.MustNew(4, 4), model.DefaultParams())
	w := &workload.Workload{Name: "equal", Apps: []workload.Application{
		{Name: "a", Threads: make([]workload.Thread, 8)},
		{Name: "b", Threads: make([]workload.Thread, 8)},
	}}
	for i := range w.Apps[0].Threads {
		w.Apps[0].Threads[i] = workload.Thread{CacheRate: 2, MemRate: 0.5}
		w.Apps[1].Threads[i] = workload.Thread{CacheRate: 1, MemRate: 0.25}
	}
	p := MustNewProblem(lm, w)
	rng := stats.NewRand(9)
	f := func(a, b uint8) bool {
		m := RandomMapping(16, rng)
		ev1 := p.Evaluate(m)
		// Swap two threads within app 0 (indices 0..7).
		i, j := int(a)%8, int(b)%8
		m[i], m[j] = m[j], m[i]
		ev2 := p.Evaluate(m)
		return math.Abs(ev1.MaxAPL-ev2.MaxAPL) < 1e-9 &&
			math.Abs(ev1.GlobalAPL-ev2.GlobalAPL) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAppGrid(t *testing.T) {
	p := figure5Problem(t)
	m := IdentityMapping(16)
	grid := p.AppGrid(m)
	if len(grid) != 4 || len(grid[0]) != 4 {
		t.Fatal("grid shape wrong")
	}
	// Identity: threads 0-3 (app 1) on row 0, etc.
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if grid[r][c] != r+1 {
				t.Fatalf("grid[%d][%d] = %d, want %d", r, c, grid[r][c], r+1)
			}
		}
	}
}
