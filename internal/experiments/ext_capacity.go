package experiments

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/workload"
)

func init() {
	register("capacity", "Extension: multiple threads per tile (the paper's footnote generalization)", extCapacity)
}

// CapacityRow is one mapper's outcome on the slotted chip.
type CapacityRow struct {
	Mapper         string
	MaxAPL, DevAPL float64
	GAPL           float64
}

// CapacityResult is the comparison.
type CapacityResult struct {
	*Doc
	Apps, Threads, Tiles, Capacity int
	RandMax, RandDev               float64
	Rows                           []CapacityRow
}

// extCapacity is the multi-thread-per-tile generalization the paper's
// Section III.B footnote mentions but does not treat: two
// configurations' worth of applications (8 apps, 128 threads) share one
// 8x8 chip with two hardware threads per tile. Slots generalize tiles
// and every algorithm carries over unchanged.
func extCapacity(ctx context.Context, o Options) (*CapacityResult, error) {
	sp, err := o.Spec()
	if err != nil {
		return nil, err
	}
	lm, err := model.New(mesh.MustNew(8, 8), model.DefaultParams())
	if err != nil {
		return nil, err
	}
	// Two paper configurations' worth of applications on one chip.
	w := &workload.Workload{Name: "capacity"}
	for _, cfg := range []string{"C1", "C3"} {
		src, err := problemFor(cfg)
		if err != nil {
			return nil, err
		}
		w.Apps = append(w.Apps, src.Workload().Apps...)
	}
	p, err := core.NewProblemWithCapacity(lm, w, 2)
	if err != nil {
		return nil, err
	}
	res := &CapacityResult{
		Apps: p.NumApps(), Threads: p.N(),
		Tiles: lm.NumTiles(), Capacity: p.Capacity(),
	}
	rand, err := randomAverages([]*core.Problem{p}, sp.Seed+71, max(sp.Budget.RandomDraws/10, 100))
	if err != nil {
		return nil, err
	}
	res.RandMax, res.RandDev = rand[0].MaxAPL, rand[0].DevAPL

	for _, m := range []mapping.Mapper{
		mapping.Global{},
		mapping.MonteCarlo{Samples: sp.Budget.MCSamples, Seed: sp.Seed + 72},
		mapping.Annealing{Iters: sp.Budget.SAIters, Seed: sp.Seed + 73},
		mapping.SortSelectSwap{},
	} {
		_, ev, err := mapEval(ctx, p, m)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, CapacityRow{
			Mapper: shortName(m), MaxAPL: ev.MaxAPL, DevAPL: ev.DevAPL, GAPL: ev.GlobalAPL,
		})
	}
	res.Doc = res.doc()
	return res, nil
}

func (r *CapacityResult) table() *Table {
	t := newTable(fmt.Sprintf("%d applications, %d threads on %d tiles (capacity %d)",
		r.Apps, r.Threads, r.Tiles, r.Capacity),
		"Mapper", "max-APL", "dev-APL", "g-APL")
	t.addRow("Random(avg)", fmt.Sprintf("%.3f", r.RandMax), fmt.Sprintf("%.4f", r.RandDev), "-")
	for _, row := range r.Rows {
		t.addRow(row.Mapper,
			fmt.Sprintf("%.3f", row.MaxAPL),
			fmt.Sprintf("%.4f", row.DevAPL),
			fmt.Sprintf("%.3f", row.GAPL))
	}
	return t
}

func (r *CapacityResult) doc() *Doc {
	return newDoc().add(r.table()).
		renderOnly(Note("\n(slots generalize tiles: with 2 threads per tile the same algorithms\n" +
			" balance 8 applications on one chip; SSS keeps its advantage)\n"))
}
