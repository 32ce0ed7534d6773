package experiments

import (
	"context"
	"fmt"

	"obm/internal/mapping"
	"obm/internal/sim"
	"obm/internal/stats"
)

func init() { register(extTail{}) }

// extTail is an extension experiment for the paper's QoS motivation:
// service agreements bind tail latency, not just the mean. It measures
// per-application P50/P95/P99 packet latencies under Global and SSS on
// the flit-level simulator and reports the cross-application spread of
// each percentile.
type extTail struct{}

func (extTail) ID() string { return "tail" }
func (extTail) Title() string {
	return "Extension: per-application tail latency under Global vs SSS"
}

// TailRow is one (mapper, app) measurement.
type TailRow struct {
	Mapper        string
	App           int
	P50, P95, P99 float64
}

// TailResult carries rows plus per-mapper percentile spreads.
type TailResult struct {
	Config string
	Rows   []TailRow
	// SpreadP99[mapper] is max-min of P99 across applications.
	SpreadP99 map[string]float64
}

func (e extTail) Run(ctx context.Context, o Options) (Result, error) {
	sp, err := o.Spec("C1")
	if err != nil {
		return nil, err
	}
	cfgName := sp.Configs[0]
	p, err := problemFor(cfgName)
	if err != nil {
		return nil, err
	}
	scfg := sim.DefaultRateDrivenConfig()
	scfg.Seed = sp.Seed + 51
	if o.Quick {
		scfg.MeasureCycles = 60_000
	}
	// Every (mapper, replica) pair is an independent simulation, so the
	// mappers' replicas run as one flat batch across cores: job i maps
	// with mappers[i/reps] and seeds replica i%reps with stream i%reps
	// of scfg.Seed (replica 0 keeps scfg.Seed, so a single replica
	// reproduces the unreplicated measurement). Percentiles are
	// averaged per application, tightening the tail estimates.
	reps := sp.Budget.SimReplicas
	mappers := []mapping.Mapper{mapping.Global{}, mapping.SortSelectSwap{}}
	srs, err := sim.RunReplicas(ctx, len(mappers)*reps, func(ctx context.Context, i int) (sim.Result, error) {
		mp, _, err := mapEval(ctx, p, mappers[i/reps])
		if err != nil {
			return sim.Result{}, err
		}
		c := scfg
		c.Seed = stats.SplitSeed(scfg.Seed, i%reps)
		return sim.RateDriven(ctx, p, mp, c)
	})
	if err != nil {
		return nil, err
	}
	res := &TailResult{Config: cfgName, SpreadP99: map[string]float64{}}
	for mi, m := range mappers {
		mine := srs[mi*reps : (mi+1)*reps]
		var p99s []float64
		for a := 0; a < p.NumApps(); a++ {
			row := TailRow{Mapper: shortName(m), App: a + 1}
			for _, sr := range mine {
				row.P50 += sr.Net.AppPercentile(a, 50)
				row.P95 += sr.Net.AppPercentile(a, 95)
				row.P99 += sr.Net.AppPercentile(a, 99)
			}
			row.P50 /= float64(reps)
			row.P95 /= float64(reps)
			row.P99 /= float64(reps)
			res.Rows = append(res.Rows, row)
			p99s = append(p99s, row.P99)
		}
		res.SpreadP99[shortName(m)] = stats.MustMax(p99s) - stats.MustMin(p99s)
	}
	return res, nil
}

func (r *TailResult) table() *Table {
	t := newTable(fmt.Sprintf("Per-application latency percentiles on %s (cycles, measured)", r.Config),
		"Mapper", "App", "P50", "P95", "P99")
	for _, row := range r.Rows {
		t.addRow(row.Mapper, fmt.Sprint(row.App),
			fmt.Sprintf("%.0f", row.P50),
			fmt.Sprintf("%.0f", row.P95),
			fmt.Sprintf("%.0f", row.P99))
	}
	return t
}

func (r *TailResult) doc() *Doc {
	d := newDoc().add(r.table())
	for _, m := range []string{"Global", "SSS"} {
		if v, ok := r.SpreadP99[m]; ok {
			d.notef("P99 spread across applications under %s: %.0f cycles\n", m, v)
		}
	}
	d.renderOnly(Note("(the body of each distribution moves with the mean: Global's slighted\n" +
		" application pays at every percentile, SSS's applications sit together;\n" +
		" the extreme tail is dominated by queueing noise at these loads)\n"))
	return d
}

// Render implements Result.
func (r *TailResult) Render() string { return r.doc().Render() }

// CSV implements Result.
func (r *TailResult) CSV() string { return r.doc().CSV() }

// JSON implements Result.
func (r *TailResult) JSON() ([]byte, error) { return r.doc().JSON() }
