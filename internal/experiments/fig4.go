package experiments

import (
	"context"
	"fmt"

	"obm/internal/mapping"
)

func init() { register("fig4", "Figure 4: Global mapping result of C1", fig4) }

// FigMappingResult is shared by fig4 and fig8a: a mapping grid plus the
// per-application APLs behind it.
type FigMappingResult struct {
	*Doc
	Caption string
	Grid    [][]int
	APLs    []float64
	MaxAPL  float64
	GAPL    float64
	Note    string
}

// fig4 reproduces Figure 4: the Global mapper's application-to-tile
// placement on configuration C1, showing the lightest application
// pushed to the worst (corner) tiles.
func fig4(ctx context.Context, o Options) (*FigMappingResult, error) {
	p, err := problemFor("C1")
	if err != nil {
		return nil, err
	}
	m, ev, err := mapEval(ctx, p, mapping.Global{})
	if err != nil {
		return nil, err
	}
	res := &FigMappingResult{
		Caption: "Figure 4: Global mapping results of C1 (cell = application ID, 1 = lightest traffic)",
		Grid:    p.AppGrid(m),
		APLs:    ev.APLs,
		MaxAPL:  ev.MaxAPL,
		GAPL:    ev.GlobalAPL,
		Note:    "the lightest application is pushed to the worst corner tiles",
	}
	res.Doc = res.doc()
	return res, nil
}

func (r *FigMappingResult) doc() *Doc {
	d := newDoc()
	d.renderOnly(&Grid{Title: r.Caption, Cells: r.Grid})
	for i, apl := range r.APLs {
		d.notef("  app %d APL: %.2f cycles\n", i+1, apl)
	}
	summary := fmt.Sprintf("  max-APL %.2f, g-APL %.2f", r.MaxAPL, r.GAPL)
	if r.Note != "" {
		summary += " — " + r.Note
	}
	d.renderOnly(Note(summary + "\n"))
	t := newTable("", "row", "col", "app")
	for row := range r.Grid {
		for col := range r.Grid[row] {
			t.addRow(fmt.Sprint(row), fmt.Sprint(col), fmt.Sprint(r.Grid[row][col]))
		}
	}
	d.csvOnly(t)
	return d
}
