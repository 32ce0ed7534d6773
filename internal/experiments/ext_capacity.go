package experiments

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/scenario"
	"obm/internal/workload"
)

func init() {
	register("capacity", "Extension: multiple threads per tile (the paper's footnote generalization)", extCapacity)
}

// CapacityRow is one mapper's outcome on the two-thread-per-tile chip.
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

// The capacity experiment's chip: the paper's 64 tiles with two
// hardware threads on each.
const (
	capacityTiles   = 64
	capacityPerTile = 2
)

// extCapacity is the multi-thread-per-tile generalization the paper's
// Section III.B footnote mentions but does not treat: two
// configurations' worth of applications (8 apps, 128 threads) share one
// 8x8 chip with two hardware threads per tile. The chip's latency table
// repeats each tile's latencies once per thread, so every algorithm
// runs on it unchanged.
func extCapacity(ctx context.Context, o Options) (*CapacityResult, error) {
	sp, err := o.Spec()
	if err != nil {
		return nil, err
	}
	p, err := capacityProblem()
	if err != nil {
		return nil, err
	}
	res := &CapacityResult{
		Apps: p.NumApps(), Threads: p.N(),
		Tiles: capacityTiles, Capacity: capacityPerTile,
	}
	rand, err := randomAverages([]*core.Problem{p}, sp.Seed+71, capacityRandomDraws(sp))
	if err != nil {
		return nil, err
	}
	res.RandMax, res.RandDev = rand[0].MaxAPL, rand[0].DevAPL

	for _, m := range capacityMappers(sp) {
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

// capacityProblem is the experiment's chip: two paper configurations'
// worth of applications (C1 and C3) on one 8x8 chip at two threads per
// tile. Mappers see the chip as a latency table over its 128 thread
// places, where place 2t+k repeats tile t's TC and TM. The table's 8x16
// mesh only numbers the places: the experiment neither simulates it nor
// prices its energy.
func capacityProblem() (*core.Problem, error) {
	chip := paperModel()
	tc := make([]float64, capacityTiles*capacityPerTile)
	tm := make([]float64, len(tc))
	for s := range tc {
		t := mesh.Tile(s / capacityPerTile)
		tc[s], tm[s] = chip.TC(t), chip.TM(t)
	}
	lm, err := model.NewTable(mesh.MustNew(8, 16), chip.Params(), tc, tm)
	if err != nil {
		return nil, err
	}
	w := &workload.Workload{Name: "capacity"}
	for _, cfg := range []string{"C1", "C3"} {
		src, err := problemFor(cfg)
		if err != nil {
			return nil, err
		}
		w.Apps = append(w.Apps, src.Workload().Apps...)
	}
	return core.NewProblem(lm, w)
}

// capacityRandomDraws is the random baseline's draw count under sp.
func capacityRandomDraws(sp scenario.Spec) int { return max(sp.Budget.RandomDraws/10, 100) }

// capacityMappers are the experiment's four mappers under sp, in row
// order.
func capacityMappers(sp scenario.Spec) []mapping.Mapper {
	return []mapping.Mapper{
		mapping.Global{},
		mapping.MonteCarlo{Samples: sp.Budget.MCSamples, Seed: sp.Seed + 72},
		mapping.Annealing{Iters: sp.Budget.SAIters, Seed: sp.Seed + 73},
		mapping.SortSelectSwap{},
	}
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
		renderOnly(Note("\n(2 threads per tile: the chip's latency table lists each tile twice, and\n" +
			" the same algorithms balance 8 applications on it; SSS keeps its advantage)\n"))
}
