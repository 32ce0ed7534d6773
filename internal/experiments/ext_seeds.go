package experiments

import (
	"context"
	"fmt"

	"obm/internal/mapping"
	"obm/internal/sim"
	"obm/internal/stats"
	"obm/internal/workload"
)

func init() {
	register("seeds", "Extension: headline metrics across workload regeneration seeds", extSeeds)
}

// SeedsResult summarizes per-seed headline metrics.
type SeedsResult struct {
	*Doc
	Seeds int
	// MaxAPLRedux[i] is seed i's average SSS-vs-Global max-APL reduction
	// (percent); DevRedux likewise for dev-APL; GAPLOver for g-APL
	// overhead.
	MaxAPLRedux, DevRedux, GAPLOver []float64
}

// extSeeds is the reproduction-robustness experiment: the paper's
// headline numbers come from one set of traces; ours come from one set
// of synthetic workloads. This experiment regenerates the eight
// configurations under many independent seeds (same Table 3 moment
// targets) and reports the distribution of the headline metrics, so the
// reproduction is not an artifact of one lucky draw.
func extSeeds(ctx context.Context, o Options) (*SeedsResult, error) {
	seeds := 10
	if o.Quick {
		seeds = 4
	}
	sp, err := o.Spec(workload.ConfigNames()...)
	if err != nil {
		return nil, err
	}
	cfgs := sp.Configs
	res := &SeedsResult{Seeds: seeds}
	for s := 0; s < seeds; s++ {
		var maxR, devR, gO float64
		type acc struct{ gMax, sMax, gDev, sDev, gG, sG float64 }
		var sums acc
		results, err := sim.RunReplicas(ctx, len(cfgs), func(ctx context.Context, ci int) (acc, error) {
			target := workload.Table3[cfgs[ci]]
			p, err := generatedProblem(workload.GenSpec{
				Name: fmt.Sprintf("%s-seed%d", cfgs[ci], s), NumApps: 4, ThreadsPer: 16,
				Cache: target.Cache, Mem: target.Mem,
				Seed: sp.Seed + uint64(s)*7919 + uint64(ci)*104729 + 1000,
			})
			if err != nil {
				return acc{}, err
			}
			_, evG, err := mapEval(ctx, p, mapping.Global{})
			if err != nil {
				return acc{}, err
			}
			_, evS, err := mapEval(ctx, p, mapping.SortSelectSwap{})
			if err != nil {
				return acc{}, err
			}
			return acc{evG.MaxAPL, evS.MaxAPL, evG.DevAPL, evS.DevAPL, evG.GlobalAPL, evS.GlobalAPL}, nil
		})
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			sums.gMax += r.gMax
			sums.sMax += r.sMax
			sums.gDev += r.gDev
			sums.sDev += r.sDev
			sums.gG += r.gG
			sums.sG += r.sG
		}
		maxR = 100 * (sums.gMax - sums.sMax) / sums.gMax
		devR = 100 * (sums.gDev - sums.sDev) / sums.gDev
		gO = 100 * (sums.sG - sums.gG) / sums.gG
		res.MaxAPLRedux = append(res.MaxAPLRedux, maxR)
		res.DevRedux = append(res.DevRedux, devR)
		res.GAPLOver = append(res.GAPLOver, gO)
	}
	res.Doc = res.doc()
	return res, nil
}

func (r *SeedsResult) table() *Table {
	t := newTable(fmt.Sprintf("Headline metrics over %d workload regenerations (percent)", r.Seeds),
		"Metric", "mean", "std", "min", "max", "(paper)")
	row := func(name string, xs []float64, paper string) {
		t.addRow(name,
			fmt.Sprintf("%.2f", stats.Mean(xs)),
			fmt.Sprintf("%.2f", stats.StdDev(xs)),
			fmt.Sprintf("%.2f", stats.MustMin(xs)),
			fmt.Sprintf("%.2f", stats.MustMax(xs)),
			paper)
	}
	row("SSS max-APL reduction vs Global", r.MaxAPLRedux, "10.42")
	row("SSS dev-APL reduction vs Global", r.DevRedux, "99.65")
	row("SSS g-APL overhead vs Global", r.GAPLOver, "<3.82")
	return t
}

func (r *SeedsResult) doc() *Doc {
	return newDoc().add(r.table()).
		renderOnly(Note("\n(every regeneration keeps the same Table 3 moments; the spread shows how\n" +
			" much of the headline is workload luck vs structure — structure dominates)\n"))
}
