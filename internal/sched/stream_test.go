package sched

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/obs"
)

func streamModel(t testing.TB) *model.LatencyModel {
	t.Helper()
	return model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
}

func genSource(t testing.TB, events int, seed uint64) Source {
	t.Helper()
	g, err := NewGenerator(GenConfig{Events: events, Tiles: 64, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStreamRunnerBasic(t *testing.T) {
	lm := streamModel(t)
	if _, err := NewStreamRunner(nil, StreamConfig{}); err == nil {
		t.Error("nil latency model accepted")
	}
	reg := obs.NewRegistry()
	r, err := NewStreamRunner(lm, StreamConfig{
		Policy:   Every{Interval: 500},
		Remapper: WarmRemap{SSS: mapping.SortSelectSwap{MaxStep: 8}},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	met, err := r.Run(context.Background(), genSource(t, 5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	run := streamRun{met, reg}
	if met.Events != 5000 {
		t.Errorf("events = %d, want 5000", met.Events)
	}
	if arr, dep := counter(reg, "sched.stream.arrivals"), counter(reg, "sched.stream.departures"); arr+dep != met.Events {
		t.Errorf("arrivals %d + departures %d != events %d", arr, dep, met.Events)
	}
	if run.attempts() == 0 || met.Remaps == 0 {
		t.Errorf("periodic policy never remapped: %+v", met)
	}
	if met.Remaps+met.RemapsRejected != run.attempts() {
		t.Errorf("remap accounting inconsistent: %+v, %d attempts", met, run.attempts())
	}
	if reg.Gauge("sched.stream.live_apps.peak").Value() == 0 || !run.measured() {
		t.Errorf("no load measured: %+v", met)
	}
	for _, v := range []float64{met.TimeWeightedMaxAPL, met.TimeWeightedDevAPL} {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("bad time-weighted metric %v in %+v", v, met)
		}
	}
}

func TestStreamRunnerDeterministic(t *testing.T) {
	lm := streamModel(t)
	run := func() StreamMetrics {
		r, err := NewStreamRunner(lm, StreamConfig{
			Policy:   Every{Interval: 300},
			Remapper: WarmRemap{SSS: mapping.SortSelectSwap{MaxStep: 8, Objective: core.Weighted{Max: 1, Dev: 2}}},
			Cost:     CompositeCost{Objective: core.Weighted{Max: 1, Dev: 2}, PerMigration: 0.001},
			Registry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		met, err := r.Run(context.Background(), genSource(t, 3000, 7))
		if err != nil {
			t.Fatal(err)
		}
		return met
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("stream runner not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestStreamIncrementalMatchesEvaluate: the incrementally maintained
// balance (numerators updated per arrival/departure) must agree with a
// from-scratch core.Evaluate of the materialized live problem at every
// step of a churning timeline.
func TestStreamIncrementalMatchesEvaluate(t *testing.T) {
	lm := streamModel(t)
	st := newStreamState(lm.NumTiles())
	pl := &SpiralPlacement{}
	for _, e := range fourPhaseScenario().Events {
		if e.Arrive != nil {
			if err := st.arrive(lm, pl, e.Arrive); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := st.depart(e.Depart); err != nil {
				t.Fatal(err)
			}
		}
		maxAPL, devAPL, active := st.balance()
		if active == 0 {
			continue
		}
		p, m, err := st.problem(lm)
		if err != nil {
			t.Fatal(err)
		}
		ev := p.Evaluate(m)
		if math.Abs(maxAPL-ev.MaxAPL) > 1e-9 || math.Abs(devAPL-ev.DevAPL) > 1e-9 {
			t.Fatalf("incremental (max %.9f, dev %.9f) != Evaluate (max %.9f, dev %.9f)",
				maxAPL, devAPL, ev.MaxAPL, ev.DevAPL)
		}
	}
}

// TestStreamRejectsAllWithProhibitiveMigrationCost: with an enormous
// per-migration charge every candidate is rejected, so the scheduler
// must report attempts but zero adopted remaps and zero migrations.
func TestStreamRejectsAllWithProhibitiveMigrationCost(t *testing.T) {
	lm := streamModel(t)
	reg := obs.NewRegistry()
	r, err := NewStreamRunner(lm, StreamConfig{
		Policy:   Every{Interval: 300},
		Remapper: FullRemap{Mapper: mapping.SortSelectSwap{}},
		Cost:     CompositeCost{PerMigration: 1e12},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	met, err := r.Run(context.Background(), genSource(t, 2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	attempts := streamRun{met, reg}.attempts()
	if attempts == 0 {
		t.Fatal("policy never fired")
	}
	if met.Remaps != 0 || met.Migrations != 0 {
		t.Errorf("prohibitive migration cost still adopted remaps: %+v", met)
	}
	if met.RemapsRejected != attempts {
		t.Errorf("rejected %d != attempts %d", met.RemapsRejected, attempts)
	}
}

// TestStreamRemappingImprovesBalance: warm-started remapping with a
// modest migration charge must beat placement-only on time-weighted
// dev-APL for the same timeline.
func TestStreamRemappingImprovesBalance(t *testing.T) {
	lm := streamModel(t)
	obj := core.Weighted{Max: 1, Dev: 2}
	run := func(cfg StreamConfig) StreamMetrics {
		cfg.Registry = obs.NewRegistry()
		r, err := NewStreamRunner(lm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		met, err := r.Run(context.Background(), genSource(t, 4000, 11))
		if err != nil {
			t.Fatal(err)
		}
		return met
	}
	baseline := run(StreamConfig{})
	warm := run(StreamConfig{
		Policy:   Every{Interval: 200},
		Remapper: WarmRemap{SSS: mapping.SortSelectSwap{MaxStep: 8, Objective: obj}},
		Cost:     CompositeCost{Objective: obj, PerMigration: 0.0005},
	})
	if warm.Remaps == 0 {
		t.Fatal("warm remapper never adopted a candidate")
	}
	if !(warm.TimeWeightedDevAPL < baseline.TimeWeightedDevAPL) {
		t.Errorf("warm remapping dev %.4f did not beat placement-only %.4f",
			warm.TimeWeightedDevAPL, baseline.TimeWeightedDevAPL)
	}
}

// TestStreamAdaptivePolicy: the measured (dev-threshold) policy drives
// the streaming runner too, via the incremental dev-APL — no problem
// rebuild per event.
func TestStreamAdaptivePolicy(t *testing.T) {
	lm := streamModel(t)
	reg := obs.NewRegistry()
	r, err := NewStreamRunner(lm, StreamConfig{
		Policy:   WhenUnbalanced{Threshold: 0.3},
		Remapper: WarmRemap{SSS: mapping.SortSelectSwap{MaxStep: 8, Objective: core.DevAPL{}}},
		Cost:     CompositeCost{Objective: core.DevAPL{}},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	met, err := r.Run(context.Background(), genSource(t, 3000, 13))
	if err != nil {
		t.Fatal(err)
	}
	if (streamRun{met, reg}).attempts() == 0 {
		t.Error("adaptive policy never fired on a churning timeline")
	}
}

func TestStreamEmptySource(t *testing.T) {
	lm := streamModel(t)
	r, err := NewStreamRunner(lm, StreamConfig{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), NewSliceSource(Scenario{})); !errors.Is(err, ErrNoEvents) {
		t.Errorf("empty source: err = %v, want ErrNoEvents", err)
	}
}

func TestStreamCancellation(t *testing.T) {
	lm := streamModel(t)
	r, err := NewStreamRunner(lm, StreamConfig{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx, genSource(t, 1000, 1)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run: err = %v, want context.Canceled", err)
	}
}

// TestStreamSLOMetricsRecorded: the obs registry carries the SLO
// surface — remap latency histogram (p99 readable), migrations per
// remap, time-weighted dev-APL, and the event counters.
func TestStreamSLOMetricsRecorded(t *testing.T) {
	lm := streamModel(t)
	reg := obs.NewRegistry()
	r, err := NewStreamRunner(lm, StreamConfig{
		Policy:   Every{Interval: 400},
		Remapper: WarmRemap{SSS: mapping.SortSelectSwap{MaxStep: 8}},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	met, err := r.Run(context.Background(), genSource(t, 4000, 3))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	counter := func(name string) uint64 {
		c, ok := snap.Counter(name)
		if !ok {
			t.Fatalf("counter %s missing", name)
		}
		return c
	}
	if got := counter("sched.stream.events"); got != uint64(met.Events) {
		t.Errorf("events counter %d != %d", got, met.Events)
	}
	if got := counter("sched.stream.remaps"); got != uint64(met.Remaps) {
		t.Errorf("remaps counter %d != %d", got, met.Remaps)
	}
	if got := counter("sched.stream.migrations"); got != uint64(met.Migrations) {
		t.Errorf("migrations counter %d != %d", got, met.Migrations)
	}
	lat, ok := snap.Histogram("sched.remap.seconds")
	if attempts := counter("sched.stream.remap.attempts"); !ok || lat.Count != attempts {
		t.Fatalf("remap latency histogram: ok=%v count=%d attempts=%d", ok, lat.Count, attempts)
	}
	if p99 := lat.Quantile(0.99); p99 <= 0 {
		t.Errorf("p99 remap latency = %v, want > 0", p99)
	}
	dev, ok := snap.Histogram("sched.stream.devapl")
	if !ok || dev.Count == 0 {
		t.Fatalf("time-weighted dev-APL histogram empty (ok=%v)", ok)
	}
	migs, ok := snap.Histogram("sched.remap.migrations")
	if !ok || migs.Count != uint64(met.Remaps) {
		t.Fatalf("migrations histogram: ok=%v count=%d remaps=%d", ok, migs.Count, met.Remaps)
	}
}

// TestStreamLargeTimeline pushes a quarter-million events through the
// warm path to guard the O(live state) scaling claim; the full
// million-event run lives in the dynstream experiment's full budget and
// BenchmarkDynamicStream.
func TestStreamLargeTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("large timeline in -short mode")
	}
	lm := streamModel(t)
	r, err := NewStreamRunner(lm, StreamConfig{
		Policy:   Every{Interval: 5000},
		Remapper: WarmRemap{SSS: mapping.SortSelectSwap{MaxStep: 8}},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	met, err := r.Run(context.Background(), genSource(t, 250_000, 2))
	if err != nil {
		t.Fatal(err)
	}
	if met.Events != 250_000 {
		t.Fatalf("events = %d, want 250000", met.Events)
	}
	if met.Remaps == 0 {
		t.Error("no remaps over 250k events")
	}
	t.Logf("250k events in %v: %+v", time.Since(start), met)
}
