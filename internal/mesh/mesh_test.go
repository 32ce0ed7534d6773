package mesh

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5); err == nil {
		t.Error("New(0,5) should error")
	}
	if _, err := New(5, -1); err == nil {
		t.Error("New(5,-1) should error")
	}
	m, err := New(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 4 || m.NumTiles() != 12 {
		t.Errorf("got %dx%d (%d tiles)", m.Rows(), m.Cols(), m.NumTiles())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0,0) should panic")
		}
	}()
	MustNew(0, 0)
}

func TestPaperNumbering(t *testing.T) {
	// Paper example (Section II.C): tile number 29 on an 8x8 mesh is at
	// the fourth row, fifth column (1-based).
	m := MustNew(8, 8)
	tile := m.FromPaperNumber(29)
	c := m.Coord(tile)
	if c.Row+1 != 4 || c.Col+1 != 5 {
		t.Errorf("paper tile 29 at 1-based (%d,%d), want (4,5)", c.Row+1, c.Col+1)
	}
	if m.PaperNumber(tile) != 29 {
		t.Errorf("round trip failed: %d", m.PaperNumber(tile))
	}
}

func TestCoordTileRoundTrip(t *testing.T) {
	m := MustNew(5, 7)
	for _, tl := range m.Tiles() {
		c := m.Coord(tl)
		if got := m.TileAt(c.Row, c.Col); got != tl {
			t.Fatalf("round trip %d -> %+v -> %d", tl, c, got)
		}
		if !m.Contains(tl) {
			t.Fatalf("Contains(%d) false", tl)
		}
	}
	if m.Contains(-1) || m.Contains(Tile(35)) {
		t.Error("Contains accepted out-of-range tile")
	}
}

func TestHops(t *testing.T) {
	m := MustNew(8, 8)
	cases := []struct {
		a, b Tile
		want int
	}{
		{0, 0, 0},
		{0, 7, 7},
		{0, 63, 14},
		{m.TileAt(3, 4), m.TileAt(3, 4), 0},
		{m.TileAt(2, 1), m.TileAt(5, 6), 8},
	}
	for _, c := range cases {
		if got := m.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := m.Hops(c.b, c.a); got != c.want {
			t.Errorf("Hops not symmetric for (%d,%d)", c.a, c.b)
		}
	}
}

func TestAvgHopsToAllPaperValues(t *testing.T) {
	// Paper Section II.C: on the 8x8 mesh, HC(corner tile 1) = 7 and
	// HC(central tile 28) = 4.
	m := MustNew(8, 8)
	if got := m.AvgHopsToAll(m.FromPaperNumber(1)); got != 7 {
		t.Errorf("corner avg hops = %v, want 7", got)
	}
	if got := m.AvgHopsToAll(m.FromPaperNumber(28)); got != 4 {
		t.Errorf("central avg hops = %v, want 4", got)
	}
}

func TestAvgHopsToAllBruteForce(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {3, 5}, {8, 8}, {1, 1}, {2, 9}} {
		m := MustNew(dims[0], dims[1])
		for _, a := range m.Tiles() {
			var sum int
			for _, b := range m.Tiles() {
				sum += m.Hops(a, b)
			}
			want := float64(sum) / float64(m.NumTiles())
			if got := m.AvgHopsToAll(a); math.Abs(got-want) > 1e-12 {
				t.Fatalf("%v tile %d: AvgHopsToAll = %v, want %v", dims, a, got, want)
			}
		}
	}
}

func TestHopsToNearestCorner(t *testing.T) {
	m := MustNew(8, 8)
	// Corners are 0 hops from themselves.
	for _, c := range m.Corners() {
		if got := m.HopsToNearestCorner(c); got != 0 {
			t.Errorf("corner %d: HM = %d, want 0", c, got)
		}
	}
	// Center tiles of an 8x8 are 3+3 = 6 hops from the nearest corner.
	if got := m.HopsToNearestCorner(m.TileAt(3, 3)); got != 6 {
		t.Errorf("center HM = %d, want 6", got)
	}
	// Matches brute force over corner set.
	for _, tl := range m.Tiles() {
		want := 1 << 30
		for _, c := range m.Corners() {
			if h := m.Hops(tl, c); h < want {
				want = h
			}
		}
		if got := m.HopsToNearestCorner(tl); got != want {
			t.Fatalf("tile %d: HM = %d, brute force %d", tl, got, want)
		}
	}
}

func TestCorners(t *testing.T) {
	m := MustNew(3, 4)
	c := m.Corners()
	want := [4]Tile{0, 3, 8, 11}
	if c != want {
		t.Errorf("Corners = %v, want %v", c, want)
	}
}

func TestString(t *testing.T) {
	if got := MustNew(8, 8).String(); got != "8x8 mesh (64 tiles)" {
		t.Errorf("String = %q", got)
	}
}

// Property: Hops is a metric (symmetry, identity, triangle inequality).
func TestHopsMetricProperties(t *testing.T) {
	m := MustNew(6, 7)
	n := m.NumTiles()
	f := func(a, b, c uint8) bool {
		ta, tb, tc := Tile(int(a)%n), Tile(int(b)%n), Tile(int(c)%n)
		hab, hba := m.Hops(ta, tb), m.Hops(tb, ta)
		return hab == hba &&
			m.Hops(ta, ta) == 0 &&
			m.Hops(ta, tc) <= hab+m.Hops(tb, tc) &&
			(hab > 0 || ta == tb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTorusHops(t *testing.T) {
	m := MustNew(8, 8)
	cases := []struct {
		a, b Tile
		want int
	}{
		{0, 0, 0},
		{0, 7, 1},  // wrap across the row: 1 hop, not 7
		{0, 63, 2}, // corner to corner: 1+1 around both wraps
		{m.TileAt(0, 3), m.TileAt(0, 5), 2},
		{m.TileAt(2, 0), m.TileAt(6, 0), 4}, // 4 either way
	}
	for _, c := range cases {
		if got := m.TorusHops(c.a, c.b); got != c.want {
			t.Errorf("TorusHops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if m.TorusHops(c.a, c.b) != m.TorusHops(c.b, c.a) {
			t.Error("torus distance not symmetric")
		}
	}
	// Torus never exceeds mesh distance.
	for _, a := range m.Tiles() {
		for _, b := range m.Tiles() {
			if m.TorusHops(a, b) > m.Hops(a, b) {
				t.Fatalf("torus (%d,%d) longer than mesh", a, b)
			}
		}
	}
}

func TestAvgTorusHopsVertexTransitive(t *testing.T) {
	m := MustNew(8, 8)
	want := m.AvgTorusHopsToAll(0)
	for _, tl := range m.Tiles() {
		if got := m.AvgTorusHopsToAll(tl); math.Abs(got-want) > 1e-12 {
			t.Fatalf("tile %d: avg %v != %v (torus should be uniform)", tl, got, want)
		}
	}
	// 8x8 torus: per-dim avg distance = (0+1+2+3+4+3+2+1)/8 = 2; total 4.
	if math.Abs(want-4) > 1e-12 {
		t.Errorf("8x8 torus avg hops = %v, want 4", want)
	}
}
