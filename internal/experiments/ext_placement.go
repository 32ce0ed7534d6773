package experiments

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
)

func init() {
	register("placement", "Extension: latency balance under alternative memory-controller placements", extPlacement)
}

// PlacementRow holds one (placement, config) outcome.
type PlacementRow struct {
	Placement            string
	Config               string
	GlobalMax, GlobalDev float64
	SSSMax, SSSDev       float64
}

// PlacementResult is the sweep.
type PlacementResult struct {
	*Doc
	Rows []PlacementRow
}

// extPlacement is an extension experiment: the OBM problem under
// different memory-controller placements. The paper fixes corner
// controllers; TM(k)'s shape changes with placement, which shifts where
// the cache/memory latency tension lands and how much balancing buys.
func extPlacement(ctx context.Context, o Options) (*PlacementResult, error) {
	sp, err := o.Spec("C1", "C4")
	if err != nil {
		return nil, err
	}
	cfgs := sp.Configs
	msh := mesh.MustNew(8, 8)
	placements := []model.Placement{
		model.CornersPlacement(msh),
		model.EdgeCentersPlacement(msh),
		model.DiagonalPlacement(msh),
	}
	res := &PlacementResult{}
	for _, pl := range placements {
		lm, err := model.NewWithPlacement(msh, model.DefaultParams(), pl)
		if err != nil {
			return nil, err
		}
		for _, cfg := range cfgs {
			paper, err := problemFor(cfg)
			if err != nil {
				return nil, err
			}
			p, err := core.NewProblem(lm, paper.Workload())
			if err != nil {
				return nil, err
			}
			_, evG, err := mapEval(ctx, p, mapping.Global{})
			if err != nil {
				return nil, err
			}
			_, evS, err := mapEval(ctx, p, mapping.SortSelectSwap{})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, PlacementRow{
				Placement: pl.Name(), Config: cfg,
				GlobalMax: evG.MaxAPL, GlobalDev: evG.DevAPL,
				SSSMax: evS.MaxAPL, SSSDev: evS.DevAPL,
			})
		}
	}
	res.Doc = res.doc()
	return res, nil
}

func (r *PlacementResult) table() *Table {
	t := newTable("Balance under memory-controller placements (8x8 mesh)",
		"Placement", "Config", "Global max", "Global dev", "SSS max", "SSS dev")
	for _, row := range r.Rows {
		t.addRow(row.Placement, row.Config,
			fmt.Sprintf("%.2f", row.GlobalMax), fmt.Sprintf("%.3f", row.GlobalDev),
			fmt.Sprintf("%.2f", row.SSSMax), fmt.Sprintf("%.3f", row.SSSDev))
	}
	return t
}

func (r *PlacementResult) doc() *Doc {
	return newDoc().add(r.table()).
		renderOnly(Note("\n(SSS balances every placement; the corner arrangement has the strongest\n" +
			" cache/memory location tension, edge-centers the mildest)\n"))
}
