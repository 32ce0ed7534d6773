package experiments

import (
	"context"
	"fmt"
	"math"

	"obm/internal/core"
	"obm/internal/obs"
	"obm/internal/power"
	"obm/internal/sim"
)

func init() { register(extPareto{}) }

// Front-shape metrics, recorded per configuration. Like every obs
// metric they are observability only — never rendered into a result,
// so envelopes stay deterministic whatever the registry has seen.
var (
	mFrontSize = obs.Default().Histogram("pareto.front.size", []float64{1, 2, 4, 8, 16, 32, 64})
	mFrontHV   = obs.Default().Histogram("pareto.front.hypervolume", []float64{1, 1e2, 1e4, 1e6, 1e8, 1e10})
)

// extPareto is the multi-objective experiment: NSGA-II evolves a
// Pareto front over the {max-APL, dev-APL, energy} vector objective
// for each configuration, and the result renders the whole trade-off
// surface — every non-dominated mapping with its three costs — plus
// the knee member's placement grid and per-tile energy field. Every
// front flows through the scenario cache under a vector-objective-
// qualified fingerprint, so warm runs recompute nothing.
type extPareto struct{}

func (extPareto) ID() string { return "pareto" }
func (extPareto) Title() string {
	return "Extension: NSGA-II Pareto fronts over {max-APL, dev-APL, energy}"
}

// ParetoFrontRow is one non-dominated mapping of a front: its vector
// costs in objective order, the g-APL read off the same mapping for
// reference, and whether it is the front's knee.
type ParetoFrontRow struct {
	MaxAPL    float64
	DevAPL    float64
	EnergyPJ  float64
	GlobalAPL float64
	Knee      bool
}

// ParetoConfig is one configuration's front with its summary
// geometry: the exact hypervolume under a deterministic reference
// point (componentwise front maximum scaled by 1.05), the knee
// member's application placement, and its per-tile energy field.
type ParetoConfig struct {
	Config      string
	Rows        []ParetoFrontRow
	Hypervolume float64
	KneeGrid    [][]int
	KneeEnergy  [][]float64
}

// ParetoResult is the full experiment output.
type ParetoResult struct {
	Mapper     string
	Objectives string
	Configs    []ParetoConfig
}

func (e extPareto) Run(ctx context.Context, o Options) (Result, error) {
	sp, err := o.Spec("C1", "C2")
	if err != nil {
		return nil, err
	}
	sm := sp.ParetoMapper()
	configs, err := sim.RunReplicas(ctx, len(sp.Configs), func(ctx context.Context, ci int) (ParetoConfig, error) {
		cfg := sp.Configs[ci]
		p, err := problemFor(cfg)
		if err != nil {
			return ParetoConfig{}, err
		}
		front, err := mapEvalSet(ctx, p, sm)
		if err != nil {
			return ParetoConfig{}, fmt.Errorf("pareto front on %s: %w", cfg, err)
		}
		knee := kneeIndex(front)
		pc := ParetoConfig{
			Config:      cfg,
			Rows:        make([]ParetoFrontRow, front.Len()),
			Hypervolume: frontHypervolume(front),
			KneeGrid:    p.AppGrid(front.Members[knee].Mapping),
			KneeEnergy:  tileEnergyField(p, front.Members[knee].Mapping),
		}
		for i, m := range front.Members {
			pc.Rows[i] = ParetoFrontRow{
				MaxAPL:    m.Vector[0],
				DevAPL:    m.Vector[1],
				EnergyPJ:  m.Vector[2],
				GlobalAPL: p.Evaluate(m.Mapping).GlobalAPL,
				Knee:      i == knee,
			}
		}
		mFrontSize.Observe(float64(front.Len()))
		mFrontHV.Observe(pc.Hypervolume)
		return pc, nil
	})
	if err != nil {
		return nil, err
	}
	return &ParetoResult{Mapper: sm.Name(), Objectives: sm.Vector().Name(), Configs: configs}, nil
}

// kneeIndex returns the front member closest (normalized L2) to the
// ideal point — the componentwise minimum over the front. Components
// with zero spread contribute nothing; canonical order makes the
// first minimizer the deterministic winner under ties.
func kneeIndex(front core.ParetoSet) int {
	if front.Len() == 0 {
		return 0
	}
	dim := len(front.Members[0].Vector)
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	copy(lo, front.Members[0].Vector)
	copy(hi, front.Members[0].Vector)
	for _, m := range front.Members[1:] {
		for d, v := range m.Vector {
			lo[d] = math.Min(lo[d], v)
			hi[d] = math.Max(hi[d], v)
		}
	}
	best, bestDist := 0, math.Inf(1)
	for i, m := range front.Members {
		var dist float64
		for d, v := range m.Vector {
			if spread := hi[d] - lo[d]; spread > 0 {
				z := (v - lo[d]) / spread
				dist += z * z
			}
		}
		if dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}

// frontHypervolume scores the front against the deterministic
// reference point ref = componentwise maximum x 1.05, so the boundary
// members contribute volume too.
func frontHypervolume(front core.ParetoSet) float64 {
	if front.Len() == 0 {
		return 0
	}
	dim := len(front.Members[0].Vector)
	ref := make([]float64, dim)
	points := make([][]float64, front.Len())
	for i, m := range front.Members {
		points[i] = m.Vector
		for d, v := range m.Vector {
			ref[d] = math.Max(ref[d], v)
		}
	}
	for d := range ref {
		ref[d] *= 1.05
	}
	return core.Hypervolume(points, ref)
}

// tileEnergyField lays the mapping's dynamic NoC energy out per tile:
// each thread contributes its rate-weighted hop volume — recovered
// from its analytic cost exactly as core.Energy does in aggregate —
// priced at the default 45nm per-flit-hop energy, accumulated on the
// tile hosting it. Summed over tiles this is core.Energy up to the
// bounded controller-tile clamp documented there.
func tileEnergyField(p *core.Problem, m core.Mapping) [][]float64 {
	msh := p.Model().Mesh()
	out := make([][]float64, msh.Rows())
	for r := range out {
		out[r] = make([]float64, msh.Cols())
	}
	mp := p.Model().Params()
	perHop := mp.PerHop()
	if perHop <= 0 {
		return out
	}
	n := float64(p.N())
	pw := power.Default45nm()
	for j := 0; j < p.N(); j++ {
		offset := mp.TdS * (p.CacheRate(j)*(n-1)/n + p.MemRate(j))
		hops := (p.ThreadCost(j, m[j]) - offset) / perHop
		if hops < 0 {
			hops = 0
		}
		c := msh.Coord(p.TileOfSlot(m[j]))
		out[c.Row][c.Col] += power.EstimateEnergy(pw, hops)
	}
	return out
}

func (r *ParetoResult) doc() *Doc {
	d := newDoc()
	for _, pc := range r.Configs {
		t := newTable(fmt.Sprintf("Pareto front, %s — %s over %s (knee marked *)", pc.Config, r.Mapper, r.Objectives),
			"member", "max-APL", "dev-APL", "energy(pJ)", "g-APL", "knee")
		for i, row := range pc.Rows {
			mark := ""
			if row.Knee {
				mark = "*"
			}
			t.addRow(fmt.Sprint(i+1),
				fmt.Sprintf("%.2f", row.MaxAPL),
				fmt.Sprintf("%.3f", row.DevAPL),
				fmt.Sprintf("%.1f", row.EnergyPJ),
				fmt.Sprintf("%.2f", row.GlobalAPL),
				mark)
		}
		d.add(t)
		d.notef("  front size %d, hypervolume %.4g (ref = componentwise max x 1.05)\n\n", len(pc.Rows), pc.Hypervolume)
		d.renderOnly(&Grid{Title: fmt.Sprintf("Knee mapping of %s (cell = application ID)", pc.Config), Cells: pc.KneeGrid})
		d.renderOnly(Note("\n"))
		d.renderOnly(&Heatmap{Title: fmt.Sprintf("Knee per-tile NoC energy of %s (darker = more pJ)", pc.Config), Values: pc.KneeEnergy, Unit: "pJ"})
		d.renderOnly(Note("\n"))
	}
	d.renderOnly(Note("(each row is one non-dominated mapping of the front: no member improves\n" +
		" any column without losing another — the latency/balance/energy trade-off\n" +
		" the scalar objectives collapse; the knee is the normalized-L2-closest\n" +
		" member to the front's ideal point)\n"))
	return d
}

// Render implements Result.
func (r *ParetoResult) Render() string { return r.doc().Render() }

// CSV implements Result.
func (r *ParetoResult) CSV() string { return r.doc().CSV() }

// JSON implements Result.
func (r *ParetoResult) JSON() ([]byte, error) { return r.doc().JSON() }
