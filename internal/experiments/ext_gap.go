package experiments

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/workload"
)

func init() {
	register("gap", "Extension: optimality gap of the heuristics vs the Hungarian lower bound", extGap)
}

// GapResult holds per-config bounds and per-mapper objective values.
type GapResult struct {
	*Doc
	Configs []string
	Bounds  []float64
	Mappers []string
	// Obj[m][c] is mapper m's max-APL on config c.
	Obj [][]float64
}

// extGap is an extension experiment: how close does each heuristic get
// to the (NP-complete) optimum? An exact solve is infeasible at N=64,
// so the yardstick is the Hungarian-relaxation lower bound of
// core.LowerBound, which the exact-solver tests certify as valid.
func extGap(ctx context.Context, o Options) (*GapResult, error) {
	sp, err := o.Spec(workload.ConfigNames()...)
	if err != nil {
		return nil, err
	}
	cfgs := sp.Configs
	mappers := append(sp.StandardMappers(),
		mapping.Greedy{},
		mapping.BalancedGreedy{},
		mapping.ClusterSA{Seed: sp.Seed + 21},
	)
	res := &GapResult{Configs: cfgs}
	for _, m := range mappers {
		res.Mappers = append(res.Mappers, shortName(m))
	}
	if res.Obj, err = evalGrid(ctx, cfgs, mappers, func(ev core.Evaluation) float64 { return ev.MaxAPL }); err != nil {
		return nil, err
	}
	res.Bounds = make([]float64, len(cfgs))
	for ci, cfg := range cfgs {
		p, err := problemFor(cfg)
		if err != nil {
			return nil, err
		}
		if res.Bounds[ci], err = lowerBound(p); err != nil {
			return nil, err
		}
	}
	res.Doc = res.doc()
	return res, nil
}

// gap returns mapper mi's average gap above the bound, in percent.
func (r *GapResult) gap(mi int) float64 {
	var s float64
	for ci := range r.Configs {
		s += 100 * (r.Obj[mi][ci] - r.Bounds[ci]) / r.Bounds[ci]
	}
	return s / float64(len(r.Configs))
}

func (r *GapResult) table() *Table {
	headers := append([]string{"Mapper"}, r.Configs...)
	headers = append(headers, "avg gap %")
	t := newTable("Optimality gap: max-APL over the Hungarian lower bound (percent)", headers...)
	for mi, name := range r.Mappers {
		cells := []string{name}
		for ci := range r.Configs {
			cells = append(cells, fmt.Sprintf("%.2f", 100*(r.Obj[mi][ci]-r.Bounds[ci])/r.Bounds[ci]))
		}
		cells = append(cells, fmt.Sprintf("%.2f", r.gap(mi)))
		t.addRow(cells...)
	}
	bounds := []string{"(bound, cycles)"}
	for _, b := range r.Bounds {
		bounds = append(bounds, fmt.Sprintf("%.2f", b))
	}
	bounds = append(bounds, "")
	t.addRow(bounds...)
	return t
}

func (r *GapResult) doc() *Doc {
	return newDoc().add(r.table()).
		renderOnly(Note("\n(the bound is max of per-app unconstrained optima and the optimal g-APL;\n" +
			" the true optimum lies between the bound and the best heuristic)\n"))
}
