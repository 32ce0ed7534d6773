// Package mesh models the geometry of a 2D-mesh NoC-based chip
// multiprocessor: tile numbering, coordinates, XY (dimension-order)
// routing distances, and the chip corners memory controllers sit at.
//
// The paper (Section II.C) numbers tiles 1..N with
//
//	k = (i_k - 1) * n + j_k
//
// where i_k and j_k are the 1-based row and column. Internally this
// package uses 0-based Tile indices (0..N-1) because that is idiomatic for
// Go slices; PaperNumber and FromPaperNumber convert to and from the
// paper's 1-based numbering.
package mesh

import (
	"fmt"
)

// Tile identifies a tile by its 0-based index in row-major order.
type Tile int

// Coord is a 0-based (row, column) position on the mesh.
type Coord struct {
	Row, Col int
}

// Mesh is an immutable description of a rows x cols tile grid.
// The zero value is not usable; construct with New.
type Mesh struct {
	rows, cols int
}

// New returns a mesh with the given number of rows and columns.
// It returns an error if either dimension is not positive.
func New(rows, cols int) (*Mesh, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("mesh: invalid dimensions %dx%d", rows, cols)
	}
	return &Mesh{rows: rows, cols: cols}, nil
}

// MustNew is New but panics on error; for use with constant dimensions.
func MustNew(rows, cols int) *Mesh {
	m, err := New(rows, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// Rows returns the number of rows.
func (m *Mesh) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Mesh) Cols() int { return m.cols }

// NumTiles returns the total number of tiles N.
func (m *Mesh) NumTiles() int { return m.rows * m.cols }

// Contains reports whether t is a valid tile index for this mesh.
func (m *Mesh) Contains(t Tile) bool {
	return t >= 0 && int(t) < m.NumTiles()
}

// Coord returns the 0-based (row, col) of tile t.
func (m *Mesh) Coord(t Tile) Coord {
	return Coord{Row: int(t) / m.cols, Col: int(t) % m.cols}
}

// TileAt returns the tile at the 0-based (row, col).
func (m *Mesh) TileAt(row, col int) Tile {
	return Tile(row*m.cols + col)
}

// PaperNumber returns the 1-based tile number used in the paper (eq. 1).
func (m *Mesh) PaperNumber(t Tile) int { return int(t) + 1 }

// FromPaperNumber returns the tile for a 1-based paper tile number.
func (m *Mesh) FromPaperNumber(k int) Tile { return Tile(k - 1) }

// Hops returns the number of network hops between tiles a and b under
// XY dimension-order routing, which equals the Manhattan distance.
func (m *Mesh) Hops(a, b Tile) int {
	ca, cb := m.Coord(a), m.Coord(b)
	return abs(ca.Row-cb.Row) + abs(ca.Col-cb.Col)
}

// AvgHopsToAll returns the average hop count from tile t to every tile of
// the mesh including itself (eq. 3 of the paper: the L2 bank a cache
// request targets is uniformly distributed over all N tiles).
func (m *Mesh) AvgHopsToAll(t Tile) float64 {
	c := m.Coord(t)
	return avgAxisDist(c.Row, m.rows) + avgAxisDist(c.Col, m.cols)
}

// avgAxisDist returns the mean |pos - x| for x uniform over [0, size).
func avgAxisDist(pos, size int) float64 {
	// Sum of distances to the left of pos is pos*(pos+1)/2; to the right is
	// (size-1-pos)*(size-pos)/2.
	left := pos * (pos + 1) / 2
	right := (size - 1 - pos) * (size - pos) / 2
	return float64(left+right) / float64(size)
}

// HopsToNearestCorner returns min(i,rows-1-i)+min(j,cols-1-j), the hop
// count from tile t to the nearest chip corner — eq. (4) of the paper,
// the on-chip distance of a memory-controller request when one controller
// sits at each corner and requests follow the proximity principle.
func (m *Mesh) HopsToNearestCorner(t Tile) int {
	c := m.Coord(t)
	return min(c.Row, m.rows-1-c.Row) + min(c.Col, m.cols-1-c.Col)
}

// Corners returns the four corner tiles in order
// (top-left, top-right, bottom-left, bottom-right). For a 1x1 mesh all
// four entries are tile 0.
func (m *Mesh) Corners() [4]Tile {
	return [4]Tile{
		m.TileAt(0, 0),
		m.TileAt(0, m.cols-1),
		m.TileAt(m.rows-1, 0),
		m.TileAt(m.rows-1, m.cols-1),
	}
}

// Tiles returns all tile indices 0..N-1 in row-major order.
func (m *Mesh) Tiles() []Tile {
	ts := make([]Tile, m.NumTiles())
	for i := range ts {
		ts[i] = Tile(i)
	}
	return ts
}

// String implements fmt.Stringer.
func (m *Mesh) String() string {
	return fmt.Sprintf("%dx%d mesh (%d tiles)", m.rows, m.cols, m.NumTiles())
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TorusHops returns the hop count between a and b when the mesh's rows
// and columns wrap around (a 2D torus): per dimension the shorter way
// around the ring.
func (m *Mesh) TorusHops(a, b Tile) int {
	ca, cb := m.Coord(a), m.Coord(b)
	dr := abs(ca.Row - cb.Row)
	if w := m.rows - dr; w < dr {
		dr = w
	}
	dc := abs(ca.Col - cb.Col)
	if w := m.cols - dc; w < dc {
		dc = w
	}
	return dr + dc
}

// AvgTorusHopsToAll returns the average torus hop count from t to every
// tile including itself. A torus is vertex-transitive, so the value is
// the same for every tile — which is exactly why the paper's
// cache-latency imbalance vanishes on a torus.
func (m *Mesh) AvgTorusHopsToAll(t Tile) float64 {
	var sum int
	for _, o := range m.Tiles() {
		sum += m.TorusHops(t, o)
	}
	return float64(sum) / float64(m.NumTiles())
}
