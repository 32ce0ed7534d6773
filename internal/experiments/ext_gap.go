package experiments

import (
	"context"
	"fmt"

	"obm/internal/mapping"
	"obm/internal/sim"
	"obm/internal/workload"
)

func init() { register(extGap{}) }

// extGap is an extension experiment: how close does each heuristic get
// to the (NP-complete) optimum? An exact solve is infeasible at N=64,
// so the yardstick is the Hungarian-relaxation lower bound of
// core.LowerBound, which the exact-solver tests certify as valid.
type extGap struct{}

func (extGap) ID() string { return "gap" }
func (extGap) Title() string {
	return "Extension: optimality gap of the heuristics vs the Hungarian lower bound"
}

// GapResult holds per-config bounds and per-mapper objective values.
type GapResult struct {
	Configs []string
	Bounds  []float64
	Mappers []string
	// Obj[m][c] is mapper m's max-APL on config c.
	Obj [][]float64
}

func (g extGap) Run(ctx context.Context, o Options) (Result, error) {
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
	res.Bounds = make([]float64, len(cfgs))
	cols, err := sim.RunReplicas(ctx, len(cfgs), func(ctx context.Context, ci int) ([]float64, error) {
		p, err := problemFor(cfgs[ci])
		if err != nil {
			return nil, err
		}
		if res.Bounds[ci], err = p.LowerBound(); err != nil {
			return nil, err
		}
		col := make([]float64, len(mappers))
		for mi, m := range mappers {
			_, ev, err := mapEval(ctx, p, m)
			if err != nil {
				return nil, err
			}
			col[mi] = ev.MaxAPL
		}
		return col, nil
	})
	if err != nil {
		return nil, err
	}
	res.Obj = mapperMajor(cols, len(mappers))
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

// Render implements Result.
func (r *GapResult) Render() string { return r.doc().Render() }

// CSV implements Result.
func (r *GapResult) CSV() string { return r.doc().CSV() }

// JSON implements Result.
func (r *GapResult) JSON() ([]byte, error) { return r.doc().JSON() }
