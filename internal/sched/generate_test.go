package sched

import (
	"math"
	"testing"

	"obm/internal/workload"
)

func TestGeneratorProducesValidScenario(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 99} {
		g, err := NewGenerator(GenConfig{Events: 2000, Tiles: 64, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sc := Materialize(g)
		if len(sc.Events) != 2000 {
			t.Fatalf("seed %d: emitted %d events, want 2000", seed, len(sc.Events))
		}
		if _, err := runScenario(t, sc, Never{}, nil); err != nil {
			t.Fatalf("seed %d: generated scenario invalid: %v", seed, err)
		}
	}
}

func TestGeneratorNeverOversubscribes(t *testing.T) {
	g, err := NewGenerator(GenConfig{Events: 5000, Tiles: 32, Seed: 3, TargetLoad: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	occupied := 0
	threadsOf := map[string]int{}
	for {
		e, ok := g.Next()
		if !ok {
			break
		}
		if e.Arrive != nil {
			occupied += len(e.Arrive.Threads)
			threadsOf[e.Arrive.Name] = len(e.Arrive.Threads)
		} else {
			occupied -= threadsOf[e.Depart]
			delete(threadsOf, e.Depart)
		}
		if occupied > 32 {
			t.Fatalf("occupancy %d exceeds 32 tiles", occupied)
		}
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	cfg := GenConfig{Events: 1000, Tiles: 64, Seed: 42}
	mk := func() Scenario {
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return Materialize(g)
	}
	a, b := mk(), mk()
	if a.End != b.End || len(a.Events) != len(b.Events) {
		t.Fatalf("shape differs: %d/%d events, end %d/%d", len(a.Events), len(b.Events), a.End, b.End)
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Time != eb.Time || ea.Depart != eb.Depart ||
			(ea.Arrive == nil) != (eb.Arrive == nil) {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea, eb)
		}
		if ea.Arrive != nil {
			if ea.Arrive.Name != eb.Arrive.Name || len(ea.Arrive.Threads) != len(eb.Arrive.Threads) {
				t.Fatalf("arrival %d differs: %s/%d vs %s/%d", i,
					ea.Arrive.Name, len(ea.Arrive.Threads), eb.Arrive.Name, len(eb.Arrive.Threads))
			}
			for j := range ea.Arrive.Threads {
				if ea.Arrive.Threads[j] != eb.Arrive.Threads[j] {
					t.Fatalf("arrival %d thread %d rates differ", i, j)
				}
			}
		}
	}
	// A different seed must actually change the timeline.
	cfg.Seed = 43
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := Materialize(g)
	same := c.End == a.End
	for i := range c.Events {
		if c.Events[i].Time != a.Events[i].Time {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical timelines")
	}
}

func TestGeneratorSeedStreamsSplit(t *testing.T) {
	// Changing only the thread-size range must not shift arrival times:
	// sizes draw from their own SplitSeed stream.
	times := func(cfg GenConfig) []int64 {
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []int64
		for {
			e, ok := g.Next()
			if !ok {
				return out
			}
			if e.Arrive != nil {
				out = append(out, e.Time)
			}
		}
	}
	a := times(GenConfig{Events: 400, Tiles: 256, Seed: 9, MinThreads: 2, MaxThreads: 4})
	b := times(GenConfig{Events: 400, Tiles: 256, Seed: 9, MinThreads: 2, MaxThreads: 8})
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		t.Fatal("no arrivals generated")
	}
	// Lifetimes differ (they depend on mean app size), so departures —
	// and with them the emitted-event budget — drift; but the arrival
	// clock itself must match while both runs admit the same arrivals.
	for i := 0; i < n/2; i++ {
		if a[i] != b[i] {
			t.Fatalf("arrival %d time %d != %d despite independent size stream", i, a[i], b[i])
		}
	}
}

func TestGenConfigValidate(t *testing.T) {
	bad := []GenConfig{
		{Events: 0, Tiles: 64},
		{Events: 10, Tiles: 0},
		{Events: 10, Tiles: 64, MinThreads: 8, MaxThreads: 4},
		{Events: 10, Tiles: 4, MinThreads: 8, MaxThreads: 8},
		{Events: 10, Tiles: 64, TargetLoad: 1.5},
		{Events: 10, Tiles: 64, TargetLoad: -1},
		{Events: 10, Tiles: 64, TargetLoad: math.NaN()},
		{Events: 10, Tiles: 64, MeanGap: math.NaN()},
		{Events: 10, Tiles: 64, MeanGap: math.Inf(1)},
		{Events: 10, Tiles: 64, MeanGap: 1e-300},
		{Events: 10, Tiles: 64, MeanGap: 1e300},
		{Events: 10, Tiles: 64, AppSigma: math.NaN()},
		{Events: 10, Tiles: 64, AppSigma: -1},
		{Events: 10, Tiles: 64, ThreadSigma: 1e6},
	}
	for i, cfg := range bad {
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	// The sigma bound is inclusive: at it, the largest possible draw
	// still yields a rate within workload.MaxRate.
	edge := GenConfig{Events: 10, Tiles: 64, AppSigma: maxSigma / 2, ThreadSigma: maxSigma / 2}
	if err := edge.Validate(); err != nil {
		t.Errorf("sigma sum at the bound rejected: %v", err)
	}
	if r := math.Exp(maxSigma * maxNormal); r > 1.0000001*workload.MaxRate {
		t.Errorf("largest rate at the sigma bound %g exceeds %g", r, workload.MaxRate)
	}
}

func TestSliceSourceRoundTrip(t *testing.T) {
	sc := fourPhaseScenario()
	got := Materialize(NewSliceSource(sc))
	if got.End != sc.End || len(got.Events) != len(sc.Events) {
		t.Fatalf("round trip changed shape: %+v", got)
	}
	src := NewSliceSource(sc)
	if src.Len() != len(sc.Events) {
		t.Errorf("Len = %d, want %d", src.Len(), len(sc.Events))
	}
}

func TestGenConfigWithOverrides(t *testing.T) {
	base := GenConfig{Events: 100, Tiles: 64, Seed: 1}
	got, err := base.WithOverrides("load=0.8, gap=50, minthreads=4,maxthreads=24,appsigma=1.5,threadsigma=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if got.TargetLoad != 0.8 || got.MeanGap != 50 || got.MinThreads != 4 || got.MaxThreads != 24 ||
		got.AppSigma != 1.5 || got.ThreadSigma != 0.2 {
		t.Errorf("overrides not applied: %+v", got)
	}
	// Scale and seeding stay the experiment's.
	if got.Events != 100 || got.Tiles != 64 || got.Seed != 1 {
		t.Errorf("overrides touched non-shape fields: %+v", got)
	}
	// "" is the identity.
	if same, err := base.WithOverrides(""); err != nil || same != base {
		t.Errorf("empty spec changed the config: %+v (%v)", same, err)
	}
	for _, bad := range []string{"load", "load=x", "seed=2", "events=5", "nope=1"} {
		if _, err := base.WithOverrides(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	// Overridden configs validate like hand-built ones.
	if _, err := base.WithOverrides("load=2"); err != nil {
		t.Fatal(err) // parse succeeds...
	}
	over, _ := base.WithOverrides("load=2")
	if err := over.withDefaults().Validate(); err == nil {
		t.Error("out-of-range load survived Validate")
	}
}

func TestGeneratorRespectsOverrides(t *testing.T) {
	lo, err := NewGenerator(GenConfig{Events: 2_000, Tiles: 64, Seed: 9, TargetLoad: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := (GenConfig{Events: 2_000, Tiles: 64, Seed: 9}).WithOverrides("load=0.9")
	if err != nil {
		t.Fatal(err)
	}
	hi, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Higher target load means longer lifetimes, hence more concurrently
	// live applications on average.
	mean := func(g *Generator) float64 {
		live, sum, n := 0, 0, 0
		for {
			e, ok := g.Next()
			if !ok {
				break
			}
			if e.Depart != "" {
				live--
			} else {
				live++
			}
			sum += live
			n++
		}
		return float64(sum) / float64(n)
	}
	if ml, mh := mean(lo), mean(hi); ml >= mh {
		t.Errorf("mean live apps: load=0.2 gives %.2f, load=0.9 gives %.2f; want increase", ml, mh)
	}
}
