package experiments

import (
	"context"
	"fmt"

	"obm/internal/mapping"
	"obm/internal/workload"
)

func init() { register("fig12", "Figure 12: SA max-APL vs runtime budget (normalized to SSS)", fig12) }

// Fig12Result holds the SA quality curve.
type Fig12Result struct {
	*Doc
	// Multipliers are SA runtime budgets as multiples of SSS runtime.
	Multipliers []float64
	// SAMaxAPL[i] is SA's max-APL (averaged over configs) at budget i.
	SAMaxAPL []float64
	// SSSMaxAPL is the SSS average for reference.
	SSSMaxAPL float64
}

// fig12 reproduces Figure 12: simulated-annealing solution quality as a
// function of its runtime budget, normalized to SSS. The paper shows SA
// still above SSS at 100x SSS's runtime. Runtime is controlled by the
// iteration budget (18k iterations ~= 1x SSS wall time; see
// EXPERIMENTS.md for the calibration).
func fig12(ctx context.Context, o Options) (*Fig12Result, error) {
	sp, err := o.Spec(workload.ConfigNames()...)
	if err != nil {
		return nil, err
	}
	cfgs := sp.Configs
	mults := []float64{0.1, 0.3, 1, 3, 10, 30, 100}
	if o.Quick {
		mults = []float64{0.1, 1, 10}
	}
	const itersPerSSS = 18_000
	res := &Fig12Result{Multipliers: mults, SAMaxAPL: make([]float64, len(mults))}
	for _, cfg := range cfgs {
		p, err := problemFor(cfg)
		if err != nil {
			return nil, err
		}
		_, sev, err := mapEval(ctx, p, mapping.SortSelectSwap{})
		if err != nil {
			return nil, err
		}
		res.SSSMaxAPL += sev.MaxAPL
		for i, mult := range mults {
			iters := int(mult * itersPerSSS)
			if iters < 10 {
				iters = 10
			}
			_, saev, err := mapEval(ctx, p, mapping.Annealing{Iters: iters, Seed: sp.Seed + 7})
			if err != nil {
				return nil, err
			}
			res.SAMaxAPL[i] += saev.MaxAPL
		}
	}
	res.SSSMaxAPL /= float64(len(cfgs))
	for i := range res.SAMaxAPL {
		res.SAMaxAPL[i] /= float64(len(cfgs))
	}
	res.Doc = res.doc()
	return res, nil
}

func (r *Fig12Result) doc() *Doc {
	d := newDoc()
	rt := newTable("Figure 12: SA quality vs runtime (average max-APL over configurations)",
		"SA runtime (x SSS)", "SA max-APL", "vs SSS")
	rt.Units = "cycles"
	for i, m := range r.Multipliers {
		rt.addRow(fmt.Sprintf("%.1f", m),
			fmt.Sprintf("%.3f", r.SAMaxAPL[i]),
			fmt.Sprintf("%+.2f%%", 100*(r.SAMaxAPL[i]-r.SSSMaxAPL)/r.SSSMaxAPL))
	}
	d.renderOnly(rt)
	d.notef("\nSSS max-APL: %.3f cycles at 1x runtime\n", r.SSSMaxAPL)
	d.renderOnly(Note("(paper: SA stays above SSS even at 100x runtime, with diminishing gains)\n"))
	ct := newTable("", "multiplier", "sa_max_apl", "sss_max_apl")
	ct.Units = "cycles"
	for i, m := range r.Multipliers {
		ct.addRow(fmt.Sprintf("%.2f", m), fmt.Sprintf("%.4f", r.SAMaxAPL[i]), fmt.Sprintf("%.4f", r.SSSMaxAPL))
	}
	d.csvOnly(ct)
	return d
}
