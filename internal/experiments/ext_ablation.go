package experiments

import (
	"context"
	"fmt"

	"obm/internal/mapping"
	"obm/internal/workload"
)

func init() {
	register("ablation", "Extension: sort-select-swap phase and design-choice ablations", extAblation)
}

// AblationRow is one variant's averages.
type AblationRow struct {
	Variant        string
	MaxAPL, DevAPL float64
	GAPL           float64
	// Probes is the swap probes one pass scores
	// (mapping.SortSelectSwap.SwapProbes), averaged over configurations;
	// -1 for variants that are not sort-select-swap.
	Probes int
}

// AblationResult is the whole study.
type AblationResult struct {
	*Doc
	Rows []AblationRow
}

// extAblation is an extension experiment: the contribution of each
// phase and design choice of sort-select-swap (the studies DESIGN.md
// calls out). Every variant maps all configurations; the table reports
// the average max-APL, dev-APL, and swap-phase work per pass.
func extAblation(ctx context.Context, o Options) (*AblationResult, error) {
	sp, err := o.Spec(workload.ConfigNames()...)
	if err != nil {
		return nil, err
	}
	cfgs := sp.Configs
	variants := []mapping.Mapper{
		mapping.SortSelectSwap{},
		mapping.SortSelectSwap{DisableSwap: true},
		mapping.SortSelectSwap{DisableFinalSAM: true},
		mapping.SortSelectSwap{DisableSwap: true, DisableFinalSAM: true},
		mapping.SortSelectSwap{Select: mapping.SelectFirst},
		mapping.SortSelectSwap{Select: mapping.SelectRandom, Seed: sp.Seed + 31},
		mapping.SortSelectSwap{WindowSize: 2},
		mapping.SortSelectSwap{WindowSize: 3},
		mapping.SortSelectSwap{MaxStep: 1},
		mapping.SortSelectSwap{Passes: 5},
		mapping.BalancedGreedy{},
		mapping.ClusterSA{Seed: sp.Seed + 32},
	}
	res := &AblationResult{}
	for _, m := range variants {
		row := AblationRow{Variant: m.Name()}
		sss, isSSS := m.(mapping.SortSelectSwap)
		for _, cfg := range cfgs {
			p, err := problemFor(cfg)
			if err != nil {
				return nil, err
			}
			_, ev, err := mapEval(ctx, p, m)
			if err != nil {
				return nil, err
			}
			row.MaxAPL += ev.MaxAPL
			row.DevAPL += ev.DevAPL
			row.GAPL += ev.GlobalAPL
			row.Probes += sss.SwapProbes(p.N())
		}
		row.Probes /= len(cfgs)
		if !isSSS {
			row.Probes = -1
		}
		n := float64(len(cfgs))
		row.MaxAPL /= n
		row.DevAPL /= n
		row.GAPL /= n
		res.Rows = append(res.Rows, row)
	}
	res.Doc = res.doc()
	return res, nil
}

func (r *AblationResult) table() *Table {
	t := newTable("SSS ablations (averages over configurations)",
		"Variant", "max-APL", "dev-APL", "g-APL", "probes/pass")
	for _, row := range r.Rows {
		probes := "-"
		if row.Probes >= 0 {
			probes = fmt.Sprint(row.Probes)
		}
		t.addRow(row.Variant,
			fmt.Sprintf("%.3f", row.MaxAPL),
			fmt.Sprintf("%.4f", row.DevAPL),
			fmt.Sprintf("%.3f", row.GAPL),
			probes)
	}
	return t
}

func (r *AblationResult) doc() *Doc {
	return newDoc().add(r.table()).
		renderOnly(Note("\n(select-only = coarse tuning; the sliding-window swap phase buys most of\n" +
			" the dev-APL reduction and full step range matters more than window size;\n" +
			" selection strategy within sections is a second-order effect)\n"))
}
