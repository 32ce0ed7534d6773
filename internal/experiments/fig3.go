package experiments

import (
	"context"
	"obm/internal/mesh"
)

func init() { register("fig3", "Figure 3: packet latencies on an 8x8 mesh network", fig3) }

// Fig3Result carries the two per-tile latency fields.
type Fig3Result struct {
	*Doc
	TC, TM [][]float64
}

// fig3 reproduces Figure 3: per-tile average packet latencies on the
// 8x8 mesh for (a) shared-cache traffic and (b) memory-controller
// traffic, rendered as shaded heatmaps plus the raw values.
func fig3(ctx context.Context, o Options) (*Fig3Result, error) {
	lm := paperModel()
	msh := lm.Mesh()
	res := &Fig3Result{
		TC: make([][]float64, msh.Rows()),
		TM: make([][]float64, msh.Rows()),
	}
	for r := 0; r < msh.Rows(); r++ {
		res.TC[r] = make([]float64, msh.Cols())
		res.TM[r] = make([]float64, msh.Cols())
		for c := 0; c < msh.Cols(); c++ {
			t := msh.TileAt(r, c)
			res.TC[r][c] = lm.TC(t)
			res.TM[r][c] = lm.TM(t)
		}
	}
	res.Doc = res.doc()
	return res, nil
}

func (r *Fig3Result) doc() *Doc {
	d := newDoc()
	d.renderOnly(&Heatmap{Title: "Figure 3a: L2 cache access latency TC(k) (darker = slower)", Values: r.TC, Unit: "cycles"})
	d.renderOnly(Note("\n"))
	d.renderOnly(&Heatmap{Title: "Figure 3b: memory-controller access latency TM(k) (darker = slower)", Values: r.TM, Unit: "cycles"})
	d.renderOnly(Note("\n(cache latency is lowest in the chip center; memory latency lowest at the corners)\n"))
	t := newTable("", "row", "col", "TC", "TM")
	t.Units = "cycles"
	for row := range r.TC {
		for col := range r.TC[row] {
			t.addRowf("%.4f", row, col, r.TC[row][col], r.TM[row][col])
		}
	}
	d.csvOnly(t)
	return d
}

// tileGridFloats is a helper for examples: it lays out a per-tile value
// function over a mesh as a 2D slice.
func tileGridFloats(msh *mesh.Mesh, f func(mesh.Tile) float64) [][]float64 {
	out := make([][]float64, msh.Rows())
	for r := 0; r < msh.Rows(); r++ {
		out[r] = make([]float64, msh.Cols())
		for c := 0; c < msh.Cols(); c++ {
			out[r][c] = f(msh.TileAt(r, c))
		}
	}
	return out
}
