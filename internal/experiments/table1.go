package experiments

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/mapping"
)

func init() { register("table1", "Table 1: imbalance exacerbation by global optimization", table1) }

// Table1Row holds one configuration's comparison.
type Table1Row struct {
	Config                   string
	RandGAPL, GlobalGAPL     float64
	RandMaxAPL, GlobalMaxAPL float64
	RandDevAPL, GlobalDevAPL float64
}

// Table1Result is the full table with averages.
type Table1Result struct {
	*Doc
	Rows []Table1Row
	Avg  Table1Row
}

// table1 reproduces Table 1 of the paper: how global-latency
// optimization exacerbates the imbalance between applications. For each
// configuration it reports the average g-APL, max-APL and dev-APL over
// many random mappings against the Global mapper's values.
func table1(ctx context.Context, o Options) (*Table1Result, error) {
	sp, err := o.Spec("C1", "C2", "C3", "C4")
	if err != nil {
		return nil, err
	}
	ps := make([]*core.Problem, len(sp.Configs))
	for i, cfg := range sp.Configs {
		if ps[i], err = problemFor(cfg); err != nil {
			return nil, err
		}
	}
	// Every config is a 64-thread problem, so one draw stream serves
	// them all (see core.RandomAverages).
	rand, err := randomAverages(ps, sp.Seed+100, sp.Budget.RandomDraws)
	if err != nil {
		return nil, err
	}
	res := &Table1Result{}
	for i, p := range ps {
		row := Table1Row{
			Config:     sp.Configs[i],
			RandGAPL:   rand[i].GlobalAPL,
			RandMaxAPL: rand[i].MaxAPL,
			RandDevAPL: rand[i].DevAPL,
		}
		_, ev, err := mapEval(ctx, p, mapping.Global{})
		if err != nil {
			return nil, err
		}
		row.GlobalGAPL = ev.GlobalAPL
		row.GlobalMaxAPL = ev.MaxAPL
		row.GlobalDevAPL = ev.DevAPL
		res.Rows = append(res.Rows, row)

		res.Avg.RandGAPL += row.RandGAPL
		res.Avg.RandMaxAPL += row.RandMaxAPL
		res.Avg.RandDevAPL += row.RandDevAPL
		res.Avg.GlobalGAPL += row.GlobalGAPL
		res.Avg.GlobalMaxAPL += row.GlobalMaxAPL
		res.Avg.GlobalDevAPL += row.GlobalDevAPL
	}
	n := float64(len(res.Rows))
	res.Avg.Config = "Avg"
	res.Avg.RandGAPL /= n
	res.Avg.RandMaxAPL /= n
	res.Avg.RandDevAPL /= n
	res.Avg.GlobalGAPL /= n
	res.Avg.GlobalMaxAPL /= n
	res.Avg.GlobalDevAPL /= n
	res.Doc = res.doc()
	return res, nil
}

func (r *Table1Result) table() *Table {
	t := newTable("Table 1: imbalance exacerbation by global optimization (cycles)",
		"Config", "g-APL rand", "g-APL Global", "max-APL rand", "max-APL Global", "dev-APL rand", "dev-APL Global")
	t.Units = "cycles"
	emit := func(row Table1Row) {
		t.addRow(row.Config,
			fmt.Sprintf("%.2f", row.RandGAPL), fmt.Sprintf("%.2f", row.GlobalGAPL),
			fmt.Sprintf("%.2f", row.RandMaxAPL), fmt.Sprintf("%.2f", row.GlobalMaxAPL),
			fmt.Sprintf("%.3f", row.RandDevAPL), fmt.Sprintf("%.3f", row.GlobalDevAPL))
	}
	for _, row := range r.Rows {
		emit(row)
	}
	emit(r.Avg)
	return t
}

func (r *Table1Result) doc() *Doc {
	d := newDoc().add(r.table())
	d.notef("\nGlobal vs random: g-APL %+.2f%%, max-APL %+.2f%%, dev-APL x%.2f\n",
		100*(r.Avg.GlobalGAPL-r.Avg.RandGAPL)/r.Avg.RandGAPL,
		100*(r.Avg.GlobalMaxAPL-r.Avg.RandMaxAPL)/r.Avg.RandMaxAPL,
		r.Avg.GlobalDevAPL/r.Avg.RandDevAPL)
	d.renderOnly(Note("(paper: -4.78% g-APL, +9.85% max-APL, ~3.4x dev-APL)\n"))
	return d
}
