package experiments

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/workload"
)

func init() { register(fig9{}) }

// fig9 reproduces Figure 9: the max-APL of the four mapping methods on
// each configuration (the paper's headline 10.42% SSS-vs-Global
// reduction).
type fig9 struct{}

func (fig9) ID() string    { return "fig9" }
func (fig9) Title() string { return "Figure 9: max-APL comparison of the four mapping methods" }

// MapperSeries holds one metric per (mapper, config) — shared by the
// fig9/fig10/fig11 bar charts.
type MapperSeries struct {
	Caption string
	Configs []string
	Mappers []string
	// Values[m][c] is the metric of mapper m on config c.
	Values [][]float64
	// Unit labels the metric.
	Unit string
	// PaperNote cites the paper's corresponding number.
	PaperNote string
	// Normalized optionally divides each column by the first mapper's
	// value when rendering.
	Normalized bool
}

func (f fig9) Run(ctx context.Context, o Options) (Result, error) {
	sp, err := o.Spec(workload.ConfigNames()...)
	if err != nil {
		return nil, err
	}
	cfgs := sp.Configs
	mappers := sp.StandardMappers()
	res := &MapperSeries{
		Caption:   "Figure 9: max-APL (cycles)",
		Configs:   cfgs,
		Unit:      "cycles",
		PaperNote: "paper: SSS reduces max-APL vs Global by 10.42% on average (MC 8.74%, SA 9.44%)",
	}
	for _, m := range mappers {
		res.Mappers = append(res.Mappers, shortName(m))
	}
	res.Values, err = evalGrid(ctx, cfgs, mappers, func(ev core.Evaluation) float64 { return ev.MaxAPL })
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (r *MapperSeries) avg(mi int) float64 {
	var s float64
	for _, v := range r.Values[mi] {
		s += v
	}
	return s / float64(len(r.Values[mi]))
}

func (r *MapperSeries) table() *Table {
	headers := append([]string{"Mapper"}, r.Configs...)
	headers = append(headers, "Avg")
	t := newTable(r.Caption, headers...)
	for mi, name := range r.Mappers {
		cells := []string{name}
		for ci, v := range r.Values[mi] {
			if r.Normalized && r.Values[0][ci] != 0 {
				cells = append(cells, fmt.Sprintf("%.4f", v/r.Values[0][ci]))
			} else {
				cells = append(cells, fmt.Sprintf("%.3f", v))
			}
		}
		if r.Normalized && r.avg(0) != 0 {
			cells = append(cells, fmt.Sprintf("%.4f", r.avg(mi)/r.avg(0)))
		} else {
			cells = append(cells, fmt.Sprintf("%.3f", r.avg(mi)))
		}
		t.addRow(cells...)
	}
	return t
}

func (r *MapperSeries) doc() *Doc {
	t := r.table()
	t.Units = r.Unit
	d := newDoc().add(t)
	avgs := make([]float64, len(r.Mappers))
	for mi := range r.Mappers {
		avgs[mi] = r.avg(mi)
		if r.Normalized && r.avg(0) != 0 {
			avgs[mi] /= r.avg(0)
		}
	}
	d.renderOnly(Note("\n"))
	d.renderOnly(&Series{Title: "averages:", Labels: r.Mappers, Values: avgs, Unit: r.Unit})
	// Relative-to-first-mapper summary (first is Global by convention).
	if len(r.Mappers) > 1 && r.avg(0) > 0 {
		for mi := 1; mi < len(r.Mappers); mi++ {
			d.notef("%s vs %s: %+.2f%%\n", r.Mappers[mi], r.Mappers[0],
				100*(r.avg(mi)-r.avg(0))/r.avg(0))
		}
	}
	if r.PaperNote != "" {
		d.renderOnly(Note("(" + r.PaperNote + ")\n"))
	}
	return d
}

// Render implements Result.
func (r *MapperSeries) Render() string { return r.doc().Render() }

// CSV implements Result.
func (r *MapperSeries) CSV() string { return r.doc().CSV() }

// JSON implements Result.
func (r *MapperSeries) JSON() ([]byte, error) { return r.doc().JSON() }
