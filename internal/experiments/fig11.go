package experiments

import (
	"context"

	"obm/internal/power"
	"obm/internal/sim"
)

func init() { register(fig11{}) }

// fig11 reproduces Figure 11: dynamic NoC power of the four mapping
// methods, measured by running the flit-level simulator under each
// mapping and feeding the flit-activity counts to the DSENT-style power
// model. The paper reports SSS within 2.7% of Global.
type fig11 struct{}

func (fig11) ID() string    { return "fig11" }
func (fig11) Title() string { return "Figure 11: dynamic NoC power comparison" }

func (f fig11) Run(ctx context.Context, o Options) (Result, error) {
	// Simulation is the expensive part; the paper's power story is the
	// same on every configuration, so the default set is trimmed.
	sp, err := o.Spec("C1", "C3", "C5", "C7")
	if err != nil {
		return nil, err
	}
	cfgs := sp.Configs
	if o.Quick {
		if len(o.Configs) == 0 {
			cfgs = []string{"C1", "C5"}
		}
	}
	mappers := sp.StandardMappers()
	res := &MapperSeries{
		Caption:    "Figure 11: dynamic NoC power normalized to Global",
		Configs:    cfgs,
		Unit:       "normalized W",
		Normalized: true,
		PaperNote:  "paper: SSS overhead <2.7% vs Global, slightly better than MC and SA",
	}
	for _, m := range mappers {
		res.Mappers = append(res.Mappers, shortName(m))
	}
	scfg := sim.DefaultRateDrivenConfig()
	scfg.Seed = o.Seed + 11
	if o.Quick {
		scfg.MeasureCycles = 40_000
	}
	pparams := power.Default45nm()
	cols, err := sim.RunReplicas(ctx, len(cfgs), func(ctx context.Context, ci int) ([]float64, error) {
		p, err := problemFor(cfgs[ci])
		if err != nil {
			return nil, err
		}
		msh := p.Model().Mesh()
		col := make([]float64, len(mappers))
		for mi, m := range mappers {
			mp, _, err := mapEval(ctx, p, m)
			if err != nil {
				return nil, err
			}
			sr, err := sim.RateDriven(ctx, p, mp, scfg)
			if err != nil {
				return nil, err
			}
			rep, err := power.Estimate(pparams, sr.Net, msh.NumTiles(),
				power.MeshLinkCount(msh.Rows(), msh.Cols()))
			if err != nil {
				return nil, err
			}
			col[mi] = rep.DynamicW
		}
		return col, nil
	})
	if err != nil {
		return nil, err
	}
	res.Values = mapperMajor(cols, len(mappers))
	return res, nil
}
