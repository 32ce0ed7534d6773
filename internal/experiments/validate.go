package experiments

import (
	"context"
	"fmt"
	"math"

	"obm/internal/mapping"
	"obm/internal/sim"
)

func init() {
	register("validate", "Validation: flit-level simulator vs analytic latency model", validate)
}

// ValidateRow compares one application.
type ValidateRow struct {
	App             int
	Model, Measured float64
	Packets         int64
}

// ValidateResult is the per-config comparison.
type ValidateResult struct {
	*Doc
	Config        string
	Mapper        string
	Rows          []ValidateRow
	QueuingPerHop float64
	MeanAbsErr    float64
}

// validate is the substitution-validation experiment backing Section
// II.C's modelling claims: it runs the flit-level simulator under a
// mapping and compares the measured per-application APLs against the
// analytic model's predictions, and reports the measured queuing
// latency per hop (the paper observes td_q in 0..1 cycles).
func validate(ctx context.Context, o Options) (Result, error) {
	sp, err := o.Spec("C1")
	if err != nil {
		return nil, err
	}
	// One job per config, each building its own Problem and Network.
	parts, err := sim.RunReplicas(ctx, len(sp.Configs), func(ctx context.Context, ci int) (Result, error) {
		cfg := sp.Configs[ci]
		p, err := problemFor(cfg)
		if err != nil {
			return nil, err
		}
		m, pred, err := mapEval(ctx, p, mapping.SortSelectSwap{})
		if err != nil {
			return nil, err
		}
		scfg := sim.DefaultRateDrivenConfig()
		scfg.Seed = sp.Seed + 5
		if o.Quick {
			scfg.MeasureCycles = 50_000
		}
		sr, err := sim.RateDriven(ctx, p, m, scfg)
		if err != nil {
			return nil, err
		}
		res := &ValidateResult{Config: cfg, Mapper: "SSS", QueuingPerHop: sr.Net.AvgQueuingPerHop()}
		for a := 0; a < p.NumApps(); a++ {
			row := ValidateRow{App: a + 1, Model: pred.APLs[a], Measured: sr.AppAPL[a]}
			if a < len(sr.Net.ByApp) {
				row.Packets = sr.Net.ByApp[a].Packets
			}
			res.Rows = append(res.Rows, row)
			res.MeanAbsErr += math.Abs(row.Measured - row.Model)
		}
		res.MeanAbsErr /= float64(len(res.Rows))
		res.Doc = res.doc()
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return multi{parts: parts}, nil
}

func (r *ValidateResult) table() *Table {
	t := newTable(fmt.Sprintf("Model validation on %s under %s", r.Config, r.Mapper),
		"App", "model APL", "measured APL", "error", "packets")
	for _, row := range r.Rows {
		t.addRow(fmt.Sprint(row.App),
			fmt.Sprintf("%.2f", row.Model),
			fmt.Sprintf("%.2f", row.Measured),
			fmt.Sprintf("%+.2f", row.Measured-row.Model),
			fmt.Sprint(row.Packets))
	}
	return t
}

func (r *ValidateResult) doc() *Doc {
	return newDoc().add(r.table()).
		notef("\nmean |error| %.2f cycles; measured queuing %.3f cycles/hop (paper observes 0..1)\n",
			r.MeanAbsErr, r.QueuingPerHop)
}
