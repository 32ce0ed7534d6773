package experiments

import (
	"context"
	"fmt"

	"obm/internal/mapping"
	"obm/internal/sim"
)

func init() { register(fig8{}) }

// fig8 reproduces Figure 8: the sort-select-swap mapping of C1 (a) and
// the per-application APL comparison against Global (b).
type fig8 struct{}

func (fig8) ID() string    { return "fig8" }
func (fig8) Title() string { return "Figure 8: SSS mapping result and APL comparison of C1" }

// Fig8Result pairs the SSS grid with the per-application APLs of both
// mappers.
type Fig8Result struct {
	Grid                [][]int
	SSSAPLs, GlobalAPLs []float64
	SSSMax, GlobalMax   float64
}

func (f fig8) Run(ctx context.Context, o Options) (Result, error) {
	// Evaluate the two mappers as independent jobs; each builds its own
	// Problem so the fan-out shares nothing.
	type eval struct {
		grid   [][]int
		apls   []float64
		maxAPL float64
	}
	mappers := []mapping.Mapper{mapping.Global{}, mapping.SortSelectSwap{}}
	evs, err := sim.RunReplicas(ctx, len(mappers), func(ctx context.Context, i int) (eval, error) {
		p, err := problemFor("C1")
		if err != nil {
			return eval{}, err
		}
		mp, ev, err := mapEval(ctx, p, mappers[i])
		if err != nil {
			return eval{}, err
		}
		out := eval{apls: ev.APLs, maxAPL: ev.MaxAPL}
		if _, isSSS := mappers[i].(mapping.SortSelectSwap); isSSS {
			out.grid = p.AppGrid(mp)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig8Result{
		Grid:       evs[1].grid,
		SSSAPLs:    evs[1].apls,
		GlobalAPLs: evs[0].apls,
		SSSMax:     evs[1].maxAPL,
		GlobalMax:  evs[0].maxAPL,
	}, nil
}

func (r *Fig8Result) doc() *Doc {
	d := newDoc()
	d.renderOnly(&Grid{Title: "Figure 8a: SSS mapping result of C1 (cell = application ID)", Cells: r.Grid})
	rt := newTable("Figure 8b: per-application APL comparison (cycles)",
		"App", "Global", "SSS", "delta")
	rt.Units = "cycles"
	for i := range r.SSSAPLs {
		rt.addRow(fmt.Sprint(i+1),
			fmt.Sprintf("%.2f", r.GlobalAPLs[i]),
			fmt.Sprintf("%.2f", r.SSSAPLs[i]),
			fmt.Sprintf("%+.2f", r.SSSAPLs[i]-r.GlobalAPLs[i]))
	}
	d.renderOnly(Note("\n"))
	d.renderOnly(rt)
	d.notef("\nmax-APL: Global %.2f -> SSS %.2f (%.2f%% lower); SSS APLs nearly equal\n",
		r.GlobalMax, r.SSSMax, 100*(r.GlobalMax-r.SSSMax)/r.GlobalMax)
	ct := newTable("", "app", "global_apl", "sss_apl")
	ct.Units = "cycles"
	for i := range r.SSSAPLs {
		ct.addRow(fmt.Sprint(i+1), fmt.Sprintf("%.4f", r.GlobalAPLs[i]), fmt.Sprintf("%.4f", r.SSSAPLs[i]))
	}
	d.csvOnly(ct)
	return d
}

// Render implements Result.
func (r *Fig8Result) Render() string { return r.doc().Render() }

// CSV implements Result.
func (r *Fig8Result) CSV() string { return r.doc().CSV() }

// JSON implements Result.
func (r *Fig8Result) JSON() ([]byte, error) { return r.doc().JSON() }
