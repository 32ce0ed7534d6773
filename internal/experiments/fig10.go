package experiments

import (
	"context"

	"obm/internal/core"
	"obm/internal/workload"
)

func init() { register("fig10", "Figure 10: normalized global APL of the four mapping methods", fig10) }

// fig10 reproduces Figure 10: global APL of the four methods,
// normalized to Global (which is optimal for this metric by
// construction). The paper reports all three balancing methods within
// 6% of Global, SSS best at <3.82%.
func fig10(ctx context.Context, o Options) (*MapperSeries, error) {
	sp, err := o.Spec(workload.ConfigNames()...)
	if err != nil {
		return nil, err
	}
	cfgs := sp.Configs
	mappers := sp.StandardMappers()
	res := &MapperSeries{
		Caption:    "Figure 10: g-APL normalized to Global",
		Configs:    cfgs,
		Unit:       "normalized",
		Normalized: true,
		PaperNote:  "paper: SSS loses <3.82% g-APL vs Global; SA 4.82%, MC 5.35%",
	}
	for _, m := range mappers {
		res.Mappers = append(res.Mappers, shortName(m))
	}
	res.Values, err = evalGrid(ctx, cfgs, mappers, func(ev core.Evaluation) float64 { return ev.GlobalAPL })
	if err != nil {
		return nil, err
	}
	res.Doc = res.doc()
	return res, nil
}
