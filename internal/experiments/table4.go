package experiments

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/workload"
)

func init() { register(table4{}) }

// table4 reproduces Table 4: the standard deviation of per-application
// APLs (dev-APL) for the four mapping algorithms on each configuration,
// with SA budgeted to runtime comparable to SSS (Section V.B.3).
type table4 struct{}

func (table4) ID() string    { return "table4" }
func (table4) Title() string { return "Table 4: dev-APL of Global/MC/SA/SSS across configurations" }

// Table4Result holds dev-APL per (mapper, config).
type Table4Result struct {
	Configs []string
	Mappers []string
	// Dev[m][c] is the dev-APL of mapper m on config c.
	Dev [][]float64
}

func (t table4) Run(ctx context.Context, o Options) (Result, error) {
	sp, err := o.Spec(workload.ConfigNames()...)
	if err != nil {
		return nil, err
	}
	cfgs := sp.Configs
	mappers := sp.StandardMappers()
	res := &Table4Result{Configs: cfgs}
	for _, m := range mappers {
		res.Mappers = append(res.Mappers, shortName(m))
	}
	res.Dev, err = evalGrid(ctx, cfgs, mappers, func(ev core.Evaluation) float64 { return ev.DevAPL })
	if err != nil {
		return nil, err
	}
	return res, nil
}

// avg returns mapper mi's mean dev-APL.
func (r *Table4Result) avg(mi int) float64 {
	var s float64
	for _, v := range r.Dev[mi] {
		s += v
	}
	return s / float64(len(r.Dev[mi]))
}

func (r *Table4Result) table() *Table {
	headers := append([]string{"Mapper"}, r.Configs...)
	headers = append(headers, "Avg")
	t := newTable("Table 4: dev-APL for different configurations", headers...)
	for mi, name := range r.Mappers {
		cells := []string{name}
		for _, v := range r.Dev[mi] {
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		cells = append(cells, fmt.Sprintf("%.3f", r.avg(mi)))
		t.addRow(cells...)
	}
	return t
}

func (r *Table4Result) doc() *Doc {
	d := newDoc().add(r.table())
	// Reduction of SSS vs the others (the paper reports 99.65%, 95.45%,
	// 83.15% vs Global, MC, SA).
	sssIdx := -1
	for i, n := range r.Mappers {
		if n == "SSS" {
			sssIdx = i
		}
	}
	if sssIdx >= 0 {
		sss := r.avg(sssIdx)
		for i, n := range r.Mappers {
			if i == sssIdx {
				continue
			}
			if a := r.avg(i); a > 0 {
				d.notef("SSS reduces dev-APL vs %s by %.2f%%\n", n, 100*(1-sss/a))
			}
		}
		d.renderOnly(Note("(paper: 99.65% vs Global, 95.45% vs MC, 83.15% vs SA)\n"))
	}
	return d
}

// Render implements Result.
func (r *Table4Result) Render() string { return r.doc().Render() }

// CSV implements Result.
func (r *Table4Result) CSV() string { return r.doc().CSV() }

// JSON implements Result.
func (r *Table4Result) JSON() ([]byte, error) { return r.doc().JSON() }
