package experiments

import (
	"context"
	"fmt"

	"obm/internal/workload"
)

func init() { register(table3{}) }

// table3 reproduces Table 3: the per-configuration traffic statistics
// of the synthetic workloads against the paper's published targets,
// demonstrating the moment-matched substitution for PARSEC traces.
type table3 struct{}

func (table3) ID() string    { return "table3" }
func (table3) Title() string { return "Table 3: configuration rate statistics vs paper targets" }

// Table3Row compares one configuration against its target.
type Table3Row struct {
	Config        string
	Got, Want     workload.RateStats
	CacheMemRatio float64
}

// Table3Result is the whole table.
type Table3Result struct {
	Rows []Table3Row
}

func (t table3) Run(ctx context.Context, o Options) (Result, error) {
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

// Render implements Result.
func (r *Table3Result) Render() string { return r.doc().Render() }

// CSV implements Result.
func (r *Table3Result) CSV() string { return r.doc().CSV() }

// JSON implements Result.
func (r *Table3Result) JSON() ([]byte, error) { return r.doc().JSON() }
