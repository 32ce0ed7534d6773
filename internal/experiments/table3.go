package experiments

import (
	"context"
	"fmt"

	"obm/internal/workload"
)

func init() { register("table3", "Table 3: configuration rate statistics vs paper targets", table3) }

// Table3Row compares one configuration against its target.
type Table3Row struct {
	Config        string
	Got, Want     workload.RateStats
	CacheMemRatio float64
}

// Table3Result is the whole table.
type Table3Result struct {
	*Doc
	Rows []Table3Row
}

// table3 reproduces Table 3: the per-configuration traffic statistics
// of the synthetic workloads against the paper's published targets,
// demonstrating the moment-matched substitution for PARSEC traces.
func table3(ctx context.Context, o Options) (*Table3Result, error) {
	sp, err := o.Spec(workload.ConfigNames()...)
	if err != nil {
		return nil, err
	}
	res := &Table3Result{}
	for _, cfg := range sp.Configs {
		p, err := problemFor(cfg)
		if err != nil {
			return nil, err
		}
		got := p.Workload().ComputeRateStats()
		row := Table3Row{Config: cfg, Got: got, Want: workload.Table3[cfg]}
		if got.Mem.Mean > 0 {
			row.CacheMemRatio = got.Cache.Mean / got.Mem.Mean
		}
		res.Rows = append(res.Rows, row)
	}
	res.Doc = res.doc()
	return res, nil
}

func (r *Table3Result) table() *Table {
	t := newTable("Table 3: communication-rate statistics (generated vs paper)",
		"Config", "cache mean", "(paper)", "cache std", "(paper)", "mem mean", "(paper)", "mem std", "(paper)", "cache:mem")
	for _, row := range r.Rows {
		t.addRow(row.Config,
			fmt.Sprintf("%.3f", row.Got.Cache.Mean), fmt.Sprintf("%.3f", row.Want.Cache.Mean),
			fmt.Sprintf("%.3f", row.Got.Cache.Std), fmt.Sprintf("%.3f", row.Want.Cache.Std),
			fmt.Sprintf("%.3f", row.Got.Mem.Mean), fmt.Sprintf("%.3f", row.Want.Mem.Mean),
			fmt.Sprintf("%.3f", row.Got.Mem.Std), fmt.Sprintf("%.3f", row.Want.Mem.Std),
			fmt.Sprintf("%.2f", row.CacheMemRatio))
	}
	return t
}

func (r *Table3Result) doc() *Doc {
	return newDoc().add(r.table()).
		renderOnly(Note("\n(paper 'Std-dev' columns read as variances; targets shown are their square roots — see DESIGN.md)\n"))
}
