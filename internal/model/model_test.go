package model

import (
	"math"
	"testing"
	"testing/quick"

	"obm/internal/mesh"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{TdR: 3, TdW: 1}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, p := range []Params{{TdR: bad}, {TdW: bad}, {TdQ: bad}, {TdS: bad}} {
			if err := p.Validate(); err == nil {
				t.Errorf("%+v accepted", p)
			}
		}
	}
}

// TestNewTableRejectsBadLatency: a negative, NaN or infinite entry in
// TC or TM is rejected.
func TestNewTableRejectsBadLatency(t *testing.T) {
	m := mesh.MustNew(2, 2)
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
		for _, col := range []string{"TC", "TM"} {
			tc, tm := []float64{1, 2, 2, 3}, []float64{0, 0, 0, 0}
			if col == "TC" {
				tc[1] = bad
			} else {
				tm[1] = bad
			}
			if _, err := NewTable(m, DefaultParams(), tc, tm); err == nil {
				t.Errorf("%s[1] = %v accepted", col, bad)
			}
		}
	}
	if _, err := NewTable(m, DefaultParams(), []float64{1, 2, 2, 3}, []float64{0, 0, 0, 0}); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
}

func TestPerHop(t *testing.T) {
	p := Params{TdR: 3, TdW: 1, TdQ: 0.5}
	if got := p.PerHop(); got != 4.5 {
		t.Errorf("PerHop = %v, want 4.5", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, DefaultParams()); err == nil {
		t.Error("nil mesh accepted")
	}
	if _, err := New(mesh.MustNew(4, 4), Params{TdR: -1}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with nil mesh should panic")
		}
	}()
	MustNew(nil, DefaultParams())
}

// TestFigure5TCValues pins the TC formula against the paper's Figure 5
// worked example: a 4x4 mesh with td_r=3, td_w=1, td_s=1 must produce
// per-tile cache latencies 12.9375 (corner), 10.9375 (edge), 8.9375
// (center).
func TestFigure5TCValues(t *testing.T) {
	m := mesh.MustNew(4, 4)
	lm := MustNew(m, Figure5Params())
	cases := []struct {
		row, col int
		want     float64
	}{
		{0, 0, 12.9375}, // corner: 3 avg hops * 4 + 15/16
		{0, 1, 10.9375}, // edge: 2.5 avg hops * 4 + 15/16
		{1, 1, 8.9375},  // center: 2 avg hops * 4 + 15/16
	}
	for _, c := range cases {
		got := lm.TC(m.TileAt(c.row, c.col))
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("TC(%d,%d) = %v, want %v", c.row, c.col, got, c.want)
		}
	}
}

// TestFigure5APLs reproduces the two APL values of Figure 5 exactly:
// the optimal mapping yields APL 10.3375 for every application, and the
// "equally bad" mapping yields 11.5375.
func TestFigure5APLs(t *testing.T) {
	m := mesh.MustNew(4, 4)
	lm := MustNew(m, Figure5Params())
	// One application's four threads with cache rates 0.1..0.4; each app
	// in Figure 5(a) receives one corner, two edges, one center, with the
	// heaviest thread on the lowest-latency tile.
	corner := lm.TC(m.TileAt(0, 0))
	edge := lm.TC(m.TileAt(0, 1))
	center := lm.TC(m.TileAt(1, 1))
	optimal := (0.4*center + 0.3*edge + 0.2*edge + 0.1*corner) / 1.0
	if math.Abs(optimal-10.3375) > 1e-12 {
		t.Errorf("optimal APL = %v, want 10.3375", optimal)
	}
	bad := (0.1*center + 0.2*edge + 0.3*edge + 0.4*corner) / 1.0
	if math.Abs(bad-11.5375) > 1e-12 {
		t.Errorf("equal-but-bad APL = %v, want 11.5375", bad)
	}
}

func TestTCAgainstDefinition(t *testing.T) {
	// TC(k) must equal the average over all destinations of the
	// point-to-point latency TD(k, k') (with TD(k,k) = 0).
	m := mesh.MustNew(5, 3)
	lm := MustNew(m, Params{TdR: 2, TdW: 1, TdQ: 0.5, TdS: 2})
	for _, src := range m.Tiles() {
		var sum float64
		for _, dst := range m.Tiles() {
			sum += lm.TD(src, dst)
		}
		want := sum / float64(m.NumTiles())
		if got := lm.TC(src); math.Abs(got-want) > 1e-9 {
			t.Fatalf("TC(%d) = %v, want %v", src, got, want)
		}
	}
}

func TestTMValues(t *testing.T) {
	m := mesh.MustNew(8, 8)
	p := DefaultParams()
	lm := MustNew(m, p)
	// Corner tiles host their own controller: zero latency.
	for _, c := range m.Corners() {
		if got := lm.TM(c); got != 0 {
			t.Errorf("TM(corner %d) = %v, want 0", c, got)
		}
	}
	// A center tile is 6 hops from its nearest corner.
	want := 6*p.PerHop() + p.TdS
	if got := lm.TM(m.TileAt(3, 3)); math.Abs(got-want) > 1e-12 {
		t.Errorf("TM(center) = %v, want %v", got, want)
	}
}

func TestTCTMSymmetry(t *testing.T) {
	// The mesh is 4-fold symmetric: tiles mapped onto each other by
	// horizontal/vertical reflection must share TC and TM.
	m := mesh.MustNew(8, 8)
	lm := MustNew(m, DefaultParams())
	for _, tl := range m.Tiles() {
		c := m.Coord(tl)
		reflH := m.TileAt(c.Row, 7-c.Col)
		reflV := m.TileAt(7-c.Row, c.Col)
		for _, r := range []mesh.Tile{reflH, reflV} {
			if math.Abs(lm.TC(tl)-lm.TC(r)) > 1e-12 {
				t.Fatalf("TC asymmetric: %d vs %d", tl, r)
			}
			if math.Abs(lm.TM(tl)-lm.TM(r)) > 1e-12 {
				t.Fatalf("TM asymmetric: %d vs %d", tl, r)
			}
		}
	}
}

func TestCenterHasSmallerTCCornerHasSmallerTM(t *testing.T) {
	// Section II.C: TC is smaller in the center, larger at corners; TM is
	// the opposite. This is the tension the algorithm exploits.
	m := mesh.MustNew(8, 8)
	lm := MustNew(m, DefaultParams())
	corner, center := m.TileAt(0, 0), m.TileAt(3, 3)
	if !(lm.TC(center) < lm.TC(corner)) {
		t.Error("TC(center) should be < TC(corner)")
	}
	if !(lm.TM(corner) < lm.TM(center)) {
		t.Error("TM(corner) should be < TM(center)")
	}
}

func TestArraysAreCopies(t *testing.T) {
	lm := MustNew(mesh.MustNew(4, 4), DefaultParams())
	tc := lm.TCArray()
	tc[0] = -999
	if lm.TC(0) == -999 {
		t.Error("TCArray leaked internal state")
	}
	tm := lm.TMArray()
	tm[5] = -999
	if lm.TM(5) == -999 {
		t.Error("TMArray leaked internal state")
	}
}

func TestTDProperties(t *testing.T) {
	m := mesh.MustNew(6, 6)
	lm := MustNew(m, DefaultParams())
	n := m.NumTiles()
	f := func(a, b uint8) bool {
		ta, tb := mesh.Tile(int(a)%n), mesh.Tile(int(b)%n)
		td := lm.TD(ta, tb)
		if ta == tb {
			return td == 0
		}
		// Latency grows with hops and includes serialization.
		return td >= lm.Params().PerHop() && td == lm.TD(tb, ta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCost(t *testing.T) {
	m := mesh.MustNew(4, 4)
	lm := MustNew(m, Figure5Params())
	tl := m.TileAt(0, 0)
	want := 2*lm.TC(tl) + 3*lm.TM(tl)
	if got := lm.Cost(2, 3, tl); math.Abs(got-want) > 1e-12 {
		t.Errorf("Cost = %v, want %v", got, want)
	}
}

func TestDefaultParamsRandomGAPLNearPaper(t *testing.T) {
	// With the default parameters, the expected g-APL of a random mapping
	// on the 8x8 mesh with cache traffic ~6.78x memory traffic should be
	// near the paper's Table 1 random average of ~22.6 cycles.
	m := mesh.MustNew(8, 8)
	lm := MustNew(m, DefaultParams())
	var tcMean, tmMean float64
	for _, tl := range m.Tiles() {
		tcMean += lm.TC(tl)
		tmMean += lm.TM(tl)
	}
	tcMean /= 64
	tmMean /= 64
	cacheFrac := 6.78 / 7.78
	g := cacheFrac*tcMean + (1-cacheFrac)*tmMean
	if g < 21.5 || g > 23.5 {
		t.Errorf("expected random g-APL = %.3f, want within [21.5, 23.5] (paper: 22.61)", g)
	}
}

// TestTilesByTC pins the one tile order of the repository: ascending
// TC, ties to the lower index, for every constructor.
func TestTilesByTC(t *testing.T) {
	ascending := func(name string, lm *LatencyModel) {
		t.Helper()
		order := lm.TilesByTC()
		if len(order) != lm.NumTiles() {
			t.Fatalf("%s: %d tiles in order, want %d", name, len(order), lm.NumTiles())
		}
		seen := make([]bool, lm.NumTiles())
		for i, tile := range order {
			if seen[tile] {
				t.Fatalf("%s: tile %d listed twice", name, tile)
			}
			seen[tile] = true
			if i == 0 {
				continue
			}
			prev := order[i-1]
			if a, b := lm.TC(prev), lm.TC(tile); a > b || (a == b && prev > tile) {
				t.Fatalf("%s: tile %d (TC %v) before tile %d (TC %v)", name, prev, a, tile, b)
			}
		}
	}

	m := mesh.MustNew(8, 8)
	lm := MustNew(m, DefaultParams())
	ascending("mesh", lm)
	// The four center tiles tie for the lowest TC; the lowest index leads.
	if got := lm.TilesByTC()[:4]; got[0] != 27 || got[1] != 28 || got[2] != 35 || got[3] != 36 {
		t.Errorf("mesh order starts %v, want [27 28 35 36]", got)
	}

	torus, err := NewTorus(m, DefaultParams(), CornersPlacement(m))
	if err != nil {
		t.Fatal(err)
	}
	ascending("torus", torus)
	for i, tile := range torus.TilesByTC() {
		if int(tile) != i {
			t.Fatalf("torus order %v, want index order (TC is constant)", torus.TilesByTC())
		}
	}

	// A table with many ties against a brute-force selection sort.
	small := mesh.MustNew(4, 4)
	tc := make([]float64, small.NumTiles())
	for i := range tc {
		tc[i] = float64((i * 7) % 5)
	}
	table, err := NewTable(small, DefaultParams(), tc, make([]float64, len(tc)))
	if err != nil {
		t.Fatal(err)
	}
	ascending("table", table)
	used := make([]bool, len(tc))
	for i, got := range table.TilesByTC() {
		best := -1
		for k := range tc {
			if !used[k] && (best < 0 || tc[k] < tc[best]) {
				best = k
			}
		}
		used[best] = true
		if int(got) != best {
			t.Fatalf("table order position %d = tile %d, brute force %d", i, got, best)
		}
	}
}
