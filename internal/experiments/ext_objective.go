package experiments

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/sim"
)

func init() {
	register("objective", "Extension: mapper x objective grid over the paper's balance metrics", extObjective)
}

// ObjectiveCell is one (mapper, objective) entry of the grid: the four
// latency metrics of the mapping the mapper produced while optimizing
// that objective.
type ObjectiveCell struct {
	Mapper    string
	Objective string
	MaxAPL    float64
	DevAPL    float64
	GlobalAPL float64
	// MinMaxRatio is min/max APL (higher is better, unlike the other
	// three).
	MinMaxRatio float64
	// EnergyPJ is the mapping's dynamic NoC energy (core.Energy, pJ).
	EnergyPJ float64
}

// ObjectiveConfig is one configuration's grid, mapper-major.
type ObjectiveConfig struct {
	Config string
	Cells  []ObjectiveCell
}

// ObjectiveResult is the full experiment output.
type ObjectiveResult struct {
	*Doc
	Configs []ObjectiveConfig
}

// extObjective is the pluggable-objective experiment: every optimizing
// mapper is run once per core.Objective (the balance metrics the
// paper's Section III.A weighs against each other), and each cell
// reports all four latency metrics of the resulting mapping. The grid
// makes the trade-off space concrete: optimizing dev-APL buys flatter
// per-application latencies than the max-APL optimum at some g-APL
// cost, optimizing g-APL collapses to the Global pathology, and so on.
// Every cell flows through the scenario cache under an objective-
// qualified fingerprint, exercising the cache's objective separation.
func extObjective(ctx context.Context, o Options) (*ObjectiveResult, error) {
	sp, err := o.Spec("C1", "C2")
	if err != nil {
		return nil, err
	}
	objs := core.Objectives()
	grids, err := sim.RunReplicas(ctx, len(sp.Configs), func(ctx context.Context, ci int) (ObjectiveConfig, error) {
		grid := ObjectiveConfig{Config: sp.Configs[ci]}
		p, err := problemFor(grid.Config)
		if err != nil {
			return ObjectiveConfig{}, err
		}
		// The optimizing mappers of the grid, parameterized by objective.
		// Global and the other construction heuristics have no cost
		// function to swap, so they are not rows here.
		mappersFor := func(obj core.Objective) []mapping.Mapper {
			return []mapping.Mapper{
				mapping.MonteCarlo{Samples: sp.Budget.MCSamples, Seed: sp.Seed + 1, Objective: obj},
				mapping.Annealing{Iters: sp.Budget.SAIters, Seed: sp.Seed + 2, Objective: obj},
				mapping.SortSelectSwap{Objective: obj},
			}
		}
		labels := []string{"MC", "SA", "SSS"}
		// Mapper-major: all objectives of one mapper are adjacent rows,
		// so the per-mapper trade-offs read straight down the table.
		num := make([]float64, p.NumApps())
		for mi := range labels {
			for _, obj := range objs {
				m := mappersFor(obj)[mi]
				mp, ev, err := mapEval(ctx, p, m)
				if err != nil {
					return ObjectiveConfig{}, fmt.Errorf("%s under %s: %w", m.Name(), obj.Name(), err)
				}
				p.Numerators(mp, num)
				grid.Cells = append(grid.Cells, ObjectiveCell{
					Mapper:      labels[mi],
					Objective:   obj.Name(),
					MaxAPL:      ev.MaxAPL,
					DevAPL:      ev.DevAPL,
					GlobalAPL:   ev.GlobalAPL,
					MinMaxRatio: ev.MinMaxRatio,
					EnergyPJ:    core.Energy{}.Value(p, num),
				})
			}
		}
		return grid, nil
	})
	if err != nil {
		return nil, err
	}
	res := &ObjectiveResult{Configs: grids}
	res.Doc = res.doc()
	return res, nil
}

// ownMetric returns the cell's value under the named objective's own
// metric and whether lower is better for it.
func (c ObjectiveCell) ownMetric(objective string) (value float64, lowerBetter bool) {
	switch objective {
	case (core.DevAPL{}).Name():
		return c.DevAPL, true
	case (core.GAPL{}).Name():
		return c.GlobalAPL, true
	case (core.MinMaxRatio{}).Name():
		return c.MinMaxRatio, false
	case (core.Energy{}).Name():
		return c.EnergyPJ, true
	default:
		return c.MaxAPL, true
	}
}

// OwnMetricGain returns, for a (mapper, objective) cell, the relative
// improvement of the objective's own metric over the same mapper's
// max-APL-optimized mapping (positive means the dedicated objective
// won), or ok=false when either cell is missing.
func (r *ObjectiveResult) OwnMetricGain(config, mapper, objective string) (gain float64, ok bool) {
	var cell, base *ObjectiveCell
	for i := range r.Configs {
		if r.Configs[i].Config != config {
			continue
		}
		for j := range r.Configs[i].Cells {
			c := &r.Configs[i].Cells[j]
			if c.Mapper != mapper {
				continue
			}
			switch c.Objective {
			case objective:
				cell = c
			case (core.MaxAPL{}).Name():
				base = c
			}
		}
	}
	if cell == nil || base == nil {
		return 0, false
	}
	v, lower := cell.ownMetric(objective)
	b, _ := base.ownMetric(objective)
	if b == 0 {
		return 0, false
	}
	if lower {
		return 100 * (b - v) / b, true
	}
	return 100 * (v - b) / b, true
}

func (r *ObjectiveResult) doc() *Doc {
	d := newDoc()
	for _, g := range r.Configs {
		t := newTable(fmt.Sprintf("Mapper x objective grid, %s (cycles; min/max dimensionless; energy pJ)", g.Config),
			"Mapper", "Objective", "max-APL", "dev-APL", "g-APL", "min/max", "energy")
		for _, c := range g.Cells {
			t.addRow(c.Mapper, c.Objective,
				fmt.Sprintf("%.2f", c.MaxAPL),
				fmt.Sprintf("%.3f", c.DevAPL),
				fmt.Sprintf("%.2f", c.GlobalAPL),
				fmt.Sprintf("%.3f", c.MinMaxRatio),
				fmt.Sprintf("%.1f", c.EnergyPJ))
		}
		d.add(t)
	}
	// Summarize how much each dedicated objective buys over optimizing
	// max-APL and reading the metric off (positive: the dedicated
	// objective won its own metric; negative: max-APL already covered it).
	if len(r.Configs) > 0 {
		cfg := r.Configs[0].Config
		for _, mapper := range []string{"SA", "SSS"} {
			for _, obj := range core.Objectives()[1:] {
				if gain, ok := r.OwnMetricGain(cfg, mapper, obj.Name()); ok {
					d.notef("%s: %s{%s} own-metric gain vs %s{max-APL}: %+.2f%%\n",
						cfg, mapper, obj.Name(), mapper, gain)
				}
			}
		}
	}
	d.renderOnly(Note("(each row optimizes its Objective column; the other metrics show the cost\n" +
		" of that choice — the paper's Section III.A trade-off made concrete)\n"))
	return d
}
