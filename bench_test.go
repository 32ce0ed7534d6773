// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per exhibit), plus ablation benchmarks for
// the design choices DESIGN.md calls out and microbenchmarks of the
// hot substrates. Metrics that matter scientifically (max-APL, dev-APL,
// g-APL, watts) are attached to each benchmark via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints both the regeneration cost and the reproduced numbers.
package obm_test

import (
	"context"
	"fmt"
	"testing"

	"obm/internal/core"
	"obm/internal/experiments"
	"obm/internal/hungarian"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/noc"
	"obm/internal/obs"
	"obm/internal/scenario"
	"obm/internal/sched"
	"obm/internal/service"
	"obm/internal/sim"
	"obm/internal/stats"
	"obm/internal/workload"
)

func benchOpts() experiments.Options {
	return experiments.Options{Quick: true, Seed: 1}
}

func paperProblem(b *testing.B, cfg string) *core.Problem {
	b.Helper()
	lm := model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
	p, err := core.NewProblem(lm, workload.MustConfig(cfg))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// --- One benchmark per table/figure ---------------------------------

// BenchmarkTable1 regenerates Table 1 (imbalance exacerbation by
// Global) and reports the average dev-APL ratio Global/random. Each
// iteration starts cold, so it times the random-mapping draws and the
// Global mapper rather than memo hits.
func BenchmarkTable1(b *testing.B) {
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		r, err := mustRunCold(b, "table1")
		if err != nil {
			b.Fatal(err)
		}
		last = r.(*experiments.Table1Result)
	}
	b.ReportMetric(last.Avg.GlobalDevAPL/last.Avg.RandDevAPL, "devAPL-ratio")
	b.ReportMetric(last.Avg.GlobalMaxAPL, "global-maxAPL")
}

// BenchmarkTable3 regenerates Table 3 (workload statistics), from a
// cold cache each iteration so it times workload generation.
func BenchmarkTable3(b *testing.B) {
	var last *experiments.Table3Result
	for i := 0; i < b.N; i++ {
		r, err := mustRunCold(b, "table3")
		if err != nil {
			b.Fatal(err)
		}
		last = r.(*experiments.Table3Result)
	}
	b.ReportMetric(last.Rows[0].Got.Cache.Mean, "C1-cache-mean")
}

// BenchmarkTable4 regenerates Table 4 (dev-APL of the four mappers)
// and reports SSS's average dev-APL.
func BenchmarkTable4(b *testing.B) {
	var sss float64
	for i := 0; i < b.N; i++ {
		r, err := mustRun(b, "table4")
		if err != nil {
			b.Fatal(err)
		}
		t4 := r.(*experiments.Table4Result)
		for mi, name := range t4.Mappers {
			if name == "SSS" {
				var s float64
				for _, v := range t4.Dev[mi] {
					s += v
				}
				sss = s / float64(len(t4.Dev[mi]))
			}
		}
	}
	b.ReportMetric(sss, "SSS-devAPL")
}

// BenchmarkFig3 regenerates the Figure 3 latency heatmaps.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := mustRun(b, "fig3"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates the Figure 4 Global mapping of C1.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := mustRun(b, "fig4"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates the Figure 5 worked example and reports the
// two APLs the paper quotes.
func BenchmarkFig5(b *testing.B) {
	var last *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		r, err := mustRun(b, "fig5")
		if err != nil {
			b.Fatal(err)
		}
		last = r.(*experiments.Fig5Result)
	}
	b.ReportMetric(last.GoodAPL, "optimal-APL")
	b.ReportMetric(last.BadAPL, "bad-APL")
}

// BenchmarkFig8 regenerates the Figure 8 SSS mapping of C1.
func BenchmarkFig8(b *testing.B) {
	var last *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		r, err := mustRun(b, "fig8")
		if err != nil {
			b.Fatal(err)
		}
		last = r.(*experiments.Fig8Result)
	}
	b.ReportMetric(100*(last.GlobalMax-last.SSSMax)/last.GlobalMax, "maxAPL-redux-%")
}

// BenchmarkFig9 regenerates Figure 9 and reports the headline SSS vs
// Global max-APL reduction (paper: 10.42%).
func BenchmarkFig9(b *testing.B) {
	var redux float64
	for i := 0; i < b.N; i++ {
		r, err := mustRun(b, "fig9")
		if err != nil {
			b.Fatal(err)
		}
		redux = seriesRedux(r.(*experiments.MapperSeries))
	}
	b.ReportMetric(redux, "maxAPL-redux-%")
}

// BenchmarkFig10 regenerates Figure 10 and reports SSS's g-APL overhead
// vs Global (paper: <3.82%).
func BenchmarkFig10(b *testing.B) {
	var over float64
	for i := 0; i < b.N; i++ {
		r, err := mustRun(b, "fig10")
		if err != nil {
			b.Fatal(err)
		}
		over = -seriesRedux(r.(*experiments.MapperSeries))
	}
	b.ReportMetric(over, "gAPL-overhead-%")
}

// BenchmarkFig11 regenerates Figure 11 (dynamic power via the
// flit-level simulator; the slowest exhibit) and reports SSS's power
// overhead vs Global (paper: <2.7%).
func BenchmarkFig11(b *testing.B) {
	var over float64
	for i := 0; i < b.N; i++ {
		r, err := mustRun(b, "fig11")
		if err != nil {
			b.Fatal(err)
		}
		over = -seriesRedux(r.(*experiments.MapperSeries))
	}
	b.ReportMetric(over, "power-overhead-%")
}

// BenchmarkFig12 regenerates Figure 12 (SA quality vs runtime).
func BenchmarkFig12(b *testing.B) {
	var last *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r, err := mustRun(b, "fig12")
		if err != nil {
			b.Fatal(err)
		}
		last = r.(*experiments.Fig12Result)
	}
	n := len(last.SAMaxAPL)
	b.ReportMetric(100*(last.SAMaxAPL[n-1]-last.SSSMaxAPL)/last.SSSMaxAPL, "SA-gap-at-max-budget-%")
}

// BenchmarkValidate regenerates the model-vs-simulator validation and
// reports the mean absolute APL error in cycles.
func BenchmarkValidate(b *testing.B) {
	var mae float64
	for i := 0; i < b.N; i++ {
		r, err := mustRun(b, "validate")
		if err != nil {
			b.Fatal(err)
		}
		if vr, ok := r.(*experiments.ValidateResult); ok {
			mae = vr.MeanAbsErr
		}
	}
	b.ReportMetric(mae, "model-error-cycles")
}

func mustRun(b *testing.B, id string) (experiments.Result, error) {
	b.Helper()
	r, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	return r.Run(context.Background(), benchOpts())
}

// mustRunCold is mustRun on an empty shared cache (emptied outside the
// timer): no artifact and no memoized input carries over from an
// earlier iteration.
func mustRunCold(b *testing.B, id string) (experiments.Result, error) {
	b.Helper()
	b.StopTimer()
	scenario.ResetShared()
	b.StartTimer()
	return mustRun(b, id)
}

// paperJobIDs are the paper's tables and figures, one daemon job each:
// the requests of the end-to-end benchmark's paper-cold and
// daemon-warm workloads.
var paperJobIDs = []string{"table1", "table3", "table4", "fig4", "fig5", "fig8", "fig9", "fig10", "gap", "seeds", "objective", "pareto"}

// BenchmarkWarmPaperJobs times one warm pass over the paper jobs at the
// full budget: service.Execute per experiment on a store that already
// holds every artifact and input, so it times what a warm daemon job
// still does (lookups, rendering and encoding the envelope).
func BenchmarkWarmPaperJobs(b *testing.B) {
	scenario.ResetShared()
	b.Cleanup(func() { scenario.ResetShared() })
	pass := func() {
		for _, id := range paperJobIDs {
			if _, err := service.Execute(context.Background(), service.Request{Experiments: []string{id}}, service.ExecConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// seriesRedux returns the percentage reduction of SSS's average vs
// Global's average in a MapperSeries.
func seriesRedux(s *experiments.MapperSeries) float64 {
	avg := func(mi int) float64 {
		var t float64
		for _, v := range s.Values[mi] {
			t += v
		}
		return t / float64(len(s.Values[mi]))
	}
	var g, ss float64
	for i, n := range s.Mappers {
		switch n {
		case "Global":
			g = avg(i)
		case "SSS":
			ss = avg(i)
		}
	}
	if g == 0 {
		return 0
	}
	return 100 * (g - ss) / g
}

// --- Ablation benchmarks (design-choice studies from DESIGN.md) ------

// BenchmarkAblationSwap isolates the contribution of the
// sliding-window swap phase (SSS step 3) by comparing the full
// algorithm, coarse tuning only, and smaller windows/steps.
func BenchmarkAblationSwap(b *testing.B) {
	variants := []mapping.Mapper{
		mapping.SortSelectSwap{},
		mapping.SortSelectSwap{DisableSwap: true},
		mapping.SortSelectSwap{WindowSize: 2},
		mapping.SortSelectSwap{WindowSize: 3},
		mapping.SortSelectSwap{MaxStep: 1},
	}
	for _, m := range variants {
		b.Run(m.Name(), func(b *testing.B) {
			p := paperProblem(b, "C1")
			var obj float64
			for i := 0; i < b.N; i++ {
				mp, err := m.Map(context.Background(), p)
				if err != nil {
					b.Fatal(err)
				}
				obj = p.MaxAPL(mp)
			}
			b.ReportMetric(obj, "maxAPL")
		})
	}
}

// BenchmarkAblationSelect compares the middle-of-section tile selection
// (the paper's choice) against first-of-section and random-in-section.
func BenchmarkAblationSelect(b *testing.B) {
	for _, sel := range []mapping.SelectStrategy{mapping.SelectMiddle, mapping.SelectFirst, mapping.SelectRandom} {
		b.Run(sel.String(), func(b *testing.B) {
			p := paperProblem(b, "C3")
			m := mapping.SortSelectSwap{Select: sel, Seed: 9}
			var obj float64
			for i := 0; i < b.N; i++ {
				mp, err := m.Map(context.Background(), p)
				if err != nil {
					b.Fatal(err)
				}
				obj = p.MaxAPL(mp)
			}
			b.ReportMetric(obj, "maxAPL")
		})
	}
}

// BenchmarkAblationFinalSAM measures the effect of the final
// per-application Hungarian polish.
func BenchmarkAblationFinalSAM(b *testing.B) {
	for _, m := range []mapping.Mapper{
		mapping.SortSelectSwap{},
		mapping.SortSelectSwap{DisableFinalSAM: true},
	} {
		b.Run(m.Name(), func(b *testing.B) {
			p := paperProblem(b, "C5")
			var obj float64
			for i := 0; i < b.N; i++ {
				mp, err := m.Map(context.Background(), p)
				if err != nil {
					b.Fatal(err)
				}
				obj = p.MaxAPL(mp)
			}
			b.ReportMetric(obj, "maxAPL")
		})
	}
}

// --- Microbenchmarks of the substrates -------------------------------

// BenchmarkSSSMap times one full sort-select-swap solve (64 tiles).
func BenchmarkSSSMap(b *testing.B) {
	p := paperProblem(b, "C1")
	m := mapping.SortSelectSwap{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSSMapPadded times one sort-select-swap solve on a 64-tile
// instance that is 40% zero-rate padding, the shape the streaming
// scheduler remaps: C1's first 38 threads, padded with idle threads by
// Workload.PadTo. A pad thread prices every tile at 0, so this tracks
// the swap phase's flat-row skip, which BenchmarkSSSMap never takes.
func BenchmarkSSSMapPadded(b *testing.B) {
	lm := model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
	w := &workload.Workload{Name: "padded"}
	live := 38
	for _, app := range workload.MustConfig("C1").Apps {
		k := min(live, len(app.Threads))
		if k == 0 {
			break
		}
		app.Threads = app.Threads[:k]
		w.Apps = append(w.Apps, app)
		live -= k
	}
	if err := w.PadTo(lm.NumTiles()); err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProblem(lm, w)
	if err != nil {
		b.Fatal(err)
	}
	m := mapping.SortSelectSwap{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlobalMap times the chip-wide Hungarian solve.
func BenchmarkGlobalMap(b *testing.B) {
	p := paperProblem(b, "C1")
	m := mapping.Global{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHungarian64 times the assignment solver on a dense 64x64
// instance (the paper's N).
func BenchmarkHungarian64(b *testing.B) {
	rng := stats.NewRand(17)
	cost := make([][]float64, 64)
	for i := range cost {
		cost[i] = make([]float64, 64)
		for j := range cost[i] {
			cost[i][j] = rng.Float64() * 100
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hungarian.Solve(cost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHungarianSAM times the solver on the shapes SAM and
// core.LowerBound feed it: one C1 application's threads against 16
// tiles (a square SAM instance with rank-2 costs c_j*TC + m_j*TM) and
// against the whole 64-tile chip (LowerBound's per-application rows).
func BenchmarkHungarianSAM(b *testing.B) {
	p := paperProblem(b, "C1")
	lo, hi := p.AppThreads(0)
	for _, tiles := range []int{hi - lo, p.N()} {
		cost := make([][]float64, hi-lo)
		for x := range cost {
			cost[x] = make([]float64, tiles)
			for t := range cost[x] {
				cost[x][t] = p.ThreadCost(lo+x, mesh.Tile(t))
			}
		}
		b.Run(fmt.Sprintf("%dx%d", hi-lo, tiles), func(b *testing.B) {
			var s hungarian.Solver
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Solve(cost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluate times one full mapping evaluation (eq. 5 over all
// applications).
func BenchmarkEvaluate(b *testing.B) {
	p := paperProblem(b, "C1")
	m := core.IdentityMapping(p.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Evaluate(m)
	}
}

// BenchmarkNoCCycle times one simulated network cycle at paper-scale
// load on the 8x8 mesh.
func BenchmarkNoCCycle(b *testing.B) {
	net := noc.MustNew(mesh.MustNew(8, 8))
	rng := stats.NewRand(23)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// ~0.25 packets/cycle chip-wide, as the paper's workloads inject.
		if rng.Float64() < 0.25 {
			_ = net.Inject(&noc.Packet{
				Src:  mesh.Tile(rng.Intn(64)),
				Dst:  mesh.Tile(rng.Intn(64)),
				Type: noc.CacheRequest,
				App:  0,
			})
		}
		net.Step()
	}
}

// BenchmarkNoCStep measures the hot Step loop itself at three operating
// points. "idle" is an empty network (pure worklist overhead per
// cycle); "loaded" keeps a steady packet population flowing by
// re-injecting on every delivery, reporting sustained flits/s and the
// steady-state allocation count (the overhaul's target is zero);
// "saturated" drives a hotspot past its throughput ceiling.
func BenchmarkNoCStep(b *testing.B) {
	b.Run("idle", func(b *testing.B) {
		net := noc.MustNew(mesh.MustNew(8, 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Step()
		}
	})
	b.Run("loaded", func(b *testing.B) {
		net := noc.MustNew(mesh.MustNew(8, 8))
		rng := stats.NewRand(23)
		var flits int64
		launch := func(src, dst mesh.Tile) {
			p := net.AllocPacket()
			p.Src, p.Dst, p.Type, p.App = src, dst, noc.CacheReply, 0
			if err := net.Inject(p); err != nil {
				b.Fatal(err)
			}
		}
		// Every delivery immediately launches a successor between two
		// fresh random tiles, holding the in-flight population constant
		// without the driver allocating anything per cycle.
		net.SetDeliveryHandler(func(p *noc.Packet) {
			flits += int64(p.Type.Flits())
			src := mesh.Tile(rng.Intn(64))
			dst := mesh.Tile((int(src) + 1 + rng.Intn(63)) % 64)
			launch(src, dst)
		})
		for k := 0; k < 16; k++ { // steady population: 16 packets in flight
			launch(mesh.Tile(4*k), mesh.Tile((4*k+13)%64))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Step()
		}
		b.ReportMetric(float64(flits)/b.Elapsed().Seconds(), "flits/s")
	})
	b.Run("saturated", func(b *testing.B) {
		// loadsweep's slowest quick-budget point: hotspot(27) offered
		// 0.12 packets/tile/cycle of cache requests over an 8,000-cycle
		// window (seed 42). Each op is one cycle of injection plus Step;
		// the network is rebuilt off the clock after every window, so
		// the saturated NI backlogs stay bounded however large b.N is.
		const window, rate = 8_000, 0.12
		pat := noc.Hotspot{Hot: 27}
		var net *noc.Network
		var m *mesh.Mesh
		var rng *stats.Rand
		cyc := window
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cyc == window {
				b.StopTimer()
				net = noc.MustNew(mesh.MustNew(8, 8))
				m, rng, cyc = net.Mesh(), stats.NewRand(42), 0
				b.StartTimer()
			}
			for src := mesh.Tile(0); src < 64; src++ {
				if rng.Float64() < rate {
					p := net.AllocPacket()
					p.Src, p.Dst, p.Type = src, pat.Dst(m, src, rng), noc.CacheRequest
					if err := net.Inject(p); err != nil {
						b.Fatal(err)
					}
				}
			}
			net.Step()
			cyc++
		}
	})
}

// BenchmarkNoCLoadSweep times one latency-vs-load measurement point at
// a moderate uniform-random load, the unit of work the loadsweep
// experiment fans out across cores.
func BenchmarkNoCLoadSweep(b *testing.B) {
	msh := mesh.MustNew(8, 8)
	sw := noc.DefaultSweepConfig()
	sw.Cycles = 2_000
	var flits int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, err := noc.MeasureLoadPoint(msh, noc.UniformRandom{}, 0.04, sw)
		if err != nil {
			b.Fatal(err)
		}
		flits += int64(pt.Throughput * float64(sw.Cycles) * 64)
	}
	b.ReportMetric(float64(flits)/b.Elapsed().Seconds(), "flits/s")
}

// BenchmarkRateDrivenSim times the full open-loop simulation used by
// Figure 11, per simulated kilocycle.
func BenchmarkRateDrivenSim(b *testing.B) {
	p := paperProblem(b, "C1")
	mp, err := mapping.MapAndCheck(context.Background(), mapping.SortSelectSwap{}, p)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultRateDrivenConfig()
	cfg.MeasureCycles = 10_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RateDriven(context.Background(), p, mp, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGen times synthesizing one Table 3 configuration.
func BenchmarkWorkloadGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.Config("C1"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension-experiment benchmarks ---------------------------------

// benchExt regenerates one extension experiment per iteration. Each
// iteration starts from an empty shared cache (reset outside the
// timer), so it times cold compute rather than memory hits.
func benchExt(b *testing.B, id string) {
	for i := 0; i < b.N; i++ {
		if _, err := mustRunCold(b, id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtGap regenerates the optimality-gap study.
func BenchmarkExtGap(b *testing.B) { benchExt(b, "gap") }

// BenchmarkExtAblation regenerates the SSS ablation study.
func BenchmarkExtAblation(b *testing.B) { benchExt(b, "ablation") }

// BenchmarkExtScaling regenerates the mesh-size scaling study.
func BenchmarkExtScaling(b *testing.B) { benchExt(b, "scaling") }

// BenchmarkExtPlacement regenerates the controller-placement study.
func BenchmarkExtPlacement(b *testing.B) { benchExt(b, "placement") }

// BenchmarkExtDynamic regenerates the churn/remapping-policy study.
func BenchmarkExtDynamic(b *testing.B) { benchExt(b, "dynamic") }

// BenchmarkExtDynstream regenerates the streaming-scheme study.
func BenchmarkExtDynstream(b *testing.B) { benchExt(b, "dynstream") }

// BenchmarkExtLoadSweep regenerates the NoC load characterization.
func BenchmarkExtLoadSweep(b *testing.B) { benchExt(b, "loadsweep") }

// BenchmarkExtTail regenerates the tail-latency study.
func BenchmarkExtTail(b *testing.B) { benchExt(b, "tail") }

// --- Additional microbenchmarks --------------------------------------

// BenchmarkSSSMultiPass times the iterate-to-convergence extension.
func BenchmarkSSSMultiPass(b *testing.B) {
	p := paperProblem(b, "C1")
	m := mapping.SortSelectSwap{Passes: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLowerBound times the Hungarian-relaxation bound at N=64.
func BenchmarkLowerBound(b *testing.B) {
	p := paperProblem(b, "C1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.LowerBound(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarlo times the serial draw at the paper's 10^4-sample
// budget. Allocations are reported: the sampler draws every trial into
// one scratch mapping and scores it with a reusable Scorer, so
// allocs/op stays a small constant (clones of improving samples) rather
// than growing with the sample count.
func BenchmarkMonteCarlo(b *testing.B) {
	p := paperProblem(b, "C1")
	m := mapping.MonteCarlo{Samples: 10_000, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateBatch compares the SoA batch evaluator against the
// per-mapping Scorer loop it replaces on Monte-Carlo's hot path: 256
// random mappings scored per op, either one at a time or in one
// EvaluateBatch pass over the flattened cost table. Both paths produce
// bit-identical costs (quick.Check-enforced); the batch path trades
// repeated cost-table gathers for a single thread-major stream.
func BenchmarkEvaluateBatch(b *testing.B) {
	p := paperProblem(b, "C1")
	n := p.N()
	const batch = 256
	rng := stats.NewRand(7)
	flat := make(core.Mapping, batch*n)
	ms := make([]core.Mapping, batch)
	for k := range ms {
		ms[k] = flat[k*n : (k+1)*n]
		core.RandomMappingInto(ms[k], rng)
	}
	out := make([]float64, batch)
	b.Run("scorer", func(b *testing.B) {
		sc := p.Scorer(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := range ms {
				out[k] = sc.Score(ms[k])
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		be := p.BatchEvaluator(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			be.EvaluateBatch(ms, out)
		}
	})
}

// BenchmarkAnnealingMap times one simulated-annealing solve at the
// SSS-equivalent 18k-iteration budget (the delta-tracker hot path).
func BenchmarkAnnealingMap(b *testing.B) {
	p := paperProblem(b, "C1")
	m := mapping.Annealing{Iters: 18_000, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterSAMap times one cluster-annealing solve on C1 at the
// default 2000-swap budget, straight on the mapper with no artifact
// store involved.
func BenchmarkClusterSAMap(b *testing.B) {
	p := paperProblem(b, "C1")
	m := mapping.ClusterSA{Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactSolve12 times branch and bound on a 12-tile instance.
func BenchmarkExactSolve12(b *testing.B) {
	lm := model.MustNew(mesh.MustNew(3, 4), model.DefaultParams())
	rng := stats.NewRand(5)
	w := &workload.Workload{Name: "bb"}
	for a := 0; a < 2; a++ {
		app := workload.Application{Name: "a"}
		for t := 0; t < 6; t++ {
			c := 1 + rng.Float64()*10
			app.Threads = append(app.Threads, workload.Thread{CacheRate: c, MemRate: 0.2 * c})
		}
		w.Apps = append(w.Apps, app)
	}
	p, err := core.NewProblem(lm, w)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (mapping.Exact{}).Map(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtSeeds regenerates the seed-robustness study.
func BenchmarkExtSeeds(b *testing.B) { benchExt(b, "seeds") }

// BenchmarkExtTopology regenerates the mesh-vs-torus study.
func BenchmarkExtTopology(b *testing.B) { benchExt(b, "topology") }

// BenchmarkExtCapacity regenerates the threads-per-tile study.
func BenchmarkExtCapacity(b *testing.B) { benchExt(b, "capacity") }

// BenchmarkExtBurst regenerates the bursty-traffic robustness study.
func BenchmarkExtBurst(b *testing.B) { benchExt(b, "burst") }

// BenchmarkExtCongestion regenerates the link-load profile study.
func BenchmarkExtCongestion(b *testing.B) { benchExt(b, "congestion") }

// BenchmarkImproveWithBudget times best-first budgeted refinement of a
// random C1 mapping (seed 3) at a 16-migration budget under the default
// objective, the remap the churn experiments' budget rows run.
func BenchmarkImproveWithBudget(b *testing.B) {
	p := paperProblem(b, "C1")
	base := core.RandomMapping(p.N(), stats.NewRand(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mapping.ImproveWithBudget(context.Background(), p, base, 16, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicStream times the streaming scheduler end to end on a
// generated 20k-event churn timeline (64 tiles). Each iteration drains
// the whole timeline; the reported dev-APL is the time-weighted
// balance the scheme sustains. The warm row runs warm-started SSS at
// twice the full re-solve's cadence — warm-starting cuts the
// per-attempt cost by ~2.5x, and spending that dividend on density is
// how it beats the full re-solve on both wall-clock and balance (the
// dynstream experiment uses the same pairing). The place-sam row places
// every arrival with a SAM solve instead of the spiral walk and never
// remaps, as dynstream's sam/never scheme does.
func BenchmarkDynamicStream(b *testing.B) {
	const events = 20_000
	obj := core.Weighted{Max: 1, Dev: 2}
	cost := sched.CompositeCost{Objective: obj, PerMigration: 0.01}
	schemes := []struct {
		name      string
		placement sched.Placement
		rm        sched.Remapper
		interval  int64
	}{
		{"place-only", &sched.SpiralPlacement{}, nil, 0},
		{"place-sam", &sched.SAMPlacement{}, nil, 0},
		{"warm", &sched.SpiralPlacement{}, sched.WarmRemap{SSS: mapping.SortSelectSwap{Objective: obj, MaxStep: 4, Passes: 1}}, 2_500},
		{"full", &sched.SpiralPlacement{}, sched.FullRemap{Mapper: mapping.SortSelectSwap{Objective: obj}}, 5_000},
	}
	lm := model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
	for _, s := range schemes {
		b.Run(s.name, func(b *testing.B) {
			cfg := sched.StreamConfig{
				Placement: s.placement,
				Registry:  obs.NewRegistry(),
			}
			if s.rm != nil {
				cfg.Policy = sched.Every{Interval: s.interval}
				cfg.Remapper = s.rm
				cfg.Cost = cost
			}
			var met sched.StreamMetrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, err := sched.NewGenerator(sched.GenConfig{Events: events, Tiles: lm.NumTiles(), Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				r, err := sched.NewStreamRunner(lm, cfg)
				if err != nil {
					b.Fatal(err)
				}
				met, err = r.Run(context.Background(), src)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(met.TimeWeightedDevAPL, "devAPL")
			b.ReportMetric(float64(met.Remaps), "remaps")
		})
	}
}

// BenchmarkNSGAII times one multi-objective NSGA-II solve over
// {max-APL, dev-APL, energy} at the quick Pareto budget (population 24,
// 20 generations on the 64-tile C1 instance) and reports the front
// size. The solver is strictly sequential, so this is also the per-configuration cost the pareto experiment
// pays per cache miss.
func BenchmarkNSGAII(b *testing.B) {
	p := paperProblem(b, "C1")
	m := mapping.NSGAII{Population: 24, Generations: 20, Seed: 1}
	var set core.ParetoSet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := mapping.MapSetAndCheck(context.Background(), m, p)
		if err != nil {
			b.Fatal(err)
		}
		set = s
	}
	b.ReportMetric(float64(set.Len()), "front-size")
}

// BenchmarkExtPareto regenerates the NSGA-II Pareto-front study.
func BenchmarkExtPareto(b *testing.B) { benchExt(b, "pareto") }
