package experiments

import (
	"context"
	"fmt"

	"obm/internal/noc"
	"obm/internal/sim"
)

func init() {
	register("loadsweep", "Extension: NoC latency/throughput vs offered load (simulator validation)", extLoadSweep)
}

// Offered loads (packets/tile/cycle) of the full and the quick sweep.
var (
	loadSweepRates      = []float64{0.005, 0.01, 0.02, 0.04, 0.08, 0.12, 0.16, 0.20}
	loadSweepQuickRates = []float64{0.01, 0.04, 0.12}
)

// LoadSweepResult holds curves per pattern.
type LoadSweepResult struct {
	*Doc
	Patterns []string
	ZeroLoad []float64
	// Points[p] is the sweep for pattern p.
	Points [][]noc.LoadPoint
}

// extLoadSweep is a substrate-validation experiment: the classic
// latency-vs-offered-load characterization of the flit-level simulator
// under standard synthetic traffic patterns. It certifies the Garnet
// substitute behaves like an interconnect: zero-load latency at light
// loads, graceful rise, saturation under adversarial patterns.
func extLoadSweep(ctx context.Context, o Options) (*LoadSweepResult, error) {
	msh := paperModel().Mesh()
	sw := noc.DefaultSweepConfig()
	sw.Seed = o.Seed + 41
	rates := loadSweepRates
	if o.Quick {
		rates = loadSweepQuickRates
		sw.Cycles = 8_000
	}
	// The hotspot sits on the center-most tile (tile 27 on the 8x8).
	hot := msh.TileAt((msh.Rows()-1)/2, (msh.Cols()-1)/2)
	pats := []noc.Pattern{
		noc.UniformRandom{},
		noc.Transpose{},
		noc.BitComplement{},
		noc.Hotspot{Hot: hot},
	}
	// Every (pattern, rate) point is an independent deterministic
	// simulation (noc.MeasureLoadPoint), so flatten the grid into one
	// job list and shard it across cores; reassembling by index keeps
	// the curves identical to the serial sweep.
	type job struct{ pi, ri int }
	var jobs []job
	for pi := range pats {
		for ri := range rates {
			jobs = append(jobs, job{pi, ri})
		}
	}
	pts, err := sim.RunReplicas(ctx, len(jobs), func(ctx context.Context, i int) (noc.LoadPoint, error) {
		j := jobs[i]
		return noc.MeasureLoadPoint(msh, pats[j.pi], rates[j.ri], sw)
	})
	if err != nil {
		return nil, err
	}
	res := &LoadSweepResult{}
	for pi, pat := range pats {
		zl, err := noc.ZeroLoadLatency(msh, pat, 200_000, sw.Seed)
		if err != nil {
			return nil, err
		}
		res.Patterns = append(res.Patterns, pat.Name())
		res.ZeroLoad = append(res.ZeroLoad, zl)
		res.Points = append(res.Points, pts[pi*len(rates):(pi+1)*len(rates)])
	}
	res.Doc = res.doc()
	return res, nil
}

func (r *LoadSweepResult) table() *Table {
	t := newTable("NoC load sweep: avg latency (cycles) by offered load (packets/tile/cycle)",
		"Pattern", "zero-load", "rate", "latency", "throughput", "saturated")
	for pi, name := range r.Patterns {
		for _, pt := range r.Points[pi] {
			t.addRow(name,
				fmt.Sprintf("%.2f", r.ZeroLoad[pi]),
				fmt.Sprintf("%.3f", pt.InjectionRate),
				fmt.Sprintf("%.2f", pt.AvgLatency),
				fmt.Sprintf("%.4f", pt.Throughput),
				fmt.Sprint(pt.Saturated))
		}
	}
	return t
}

func (r *LoadSweepResult) doc() *Doc {
	return newDoc().add(r.table()).
		renderOnly(Note("\n(latency hugs the zero-load bound at light loads and rises toward\n" +
			" saturation; adversarial patterns saturate earlier than uniform)\n"))
}
