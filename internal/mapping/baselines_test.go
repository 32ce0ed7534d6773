package mapping

import (
	"context"
	"strings"
	"testing"

	"obm/internal/core"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/stats"
	"obm/internal/workload"
)

func TestGreedyValid(t *testing.T) {
	for _, cfg := range []string{"C1", "C7"} {
		p := paperProblem(t, cfg)
		for _, m := range []Mapper{Greedy{}, BalancedGreedy{}} {
			mp, err := MapAndCheck(context.Background(), m, p)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			if err := mp.Validate(p.N()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestGreedyNearGlobal: cost-greedy approximates Global's g-APL within
// a few percent (it is the classic constructive heuristic for it).
func TestGreedyNearGlobal(t *testing.T) {
	p := paperProblem(t, "C3")
	gm, err := MapAndCheck(context.Background(), Global{}, p)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := MapAndCheck(context.Background(), Greedy{}, p)
	if err != nil {
		t.Fatal(err)
	}
	gOpt, gGreedy := p.Evaluate(gm).GlobalAPL, p.Evaluate(hm).GlobalAPL
	if gGreedy < gOpt-1e-9 {
		t.Fatalf("greedy g-APL %v beat the optimum %v", gGreedy, gOpt)
	}
	if (gGreedy-gOpt)/gOpt > 0.05 {
		t.Errorf("greedy g-APL %.3f is %.1f%% above optimal %.3f", gGreedy,
			100*(gGreedy-gOpt)/gOpt, gOpt)
	}
}

// TestBalancedGreedyBeatsGreedyOnMaxAPL: serving the worst-off
// application first should improve balance over pure cost greed.
func TestBalancedGreedyBeatsGreedyOnMaxAPL(t *testing.T) {
	better := 0
	for _, cfg := range []string{"C1", "C3", "C4", "C6", "C8"} {
		p := paperProblem(t, cfg)
		gm, err := MapAndCheck(context.Background(), Greedy{}, p)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := MapAndCheck(context.Background(), BalancedGreedy{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if p.MaxAPL(bm) < p.MaxAPL(gm) {
			better++
		}
	}
	if better < 3 {
		t.Errorf("BalancedGreedy beat Greedy on only %d/5 configs", better)
	}
}

func TestOrderCrossoverValid(t *testing.T) {
	rng := stats.NewRand(7)
	for trial := 0; trial < 200; trial++ {
		a := core.RandomMapping(16, rng)
		b := core.RandomMapping(16, rng)
		child := orderCrossover(a, b, rng)
		if err := child.Validate(16); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestClusterSAValid(t *testing.T) {
	p := paperProblem(t, "C4")
	m := ClusterSA{Seed: 11}
	mp, err := MapAndCheck(context.Background(), m, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Validate(p.N()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Name(), "ClusterSA") {
		t.Error("name wrong")
	}
}

// TestClusterSARejectsBadGeometry: the chip's tile count and every
// application's thread count must be multiples of the cluster size (4).
func TestClusterSARejectsBadGeometry(t *testing.T) {
	problem := func(w, h, apps int) *core.Problem {
		wl := workload.MustGenerate(workload.GenSpec{
			Name: "odd", NumApps: apps, ThreadsPer: w * h / apps,
			Cache: workload.Stats{Mean: 8, Std: 10}, Mem: workload.Stats{Mean: 1.2, Std: 3},
			Seed: 5,
		})
		return core.MustNewProblem(model.MustNew(mesh.MustNew(w, h), model.DefaultParams()), wl)
	}
	// 18 tiles: 4 does not divide the chip.
	if _, err := (ClusterSA{}).Map(context.Background(), problem(3, 6, 3)); err == nil || !strings.Contains(err.Error(), "does not divide 18 tiles") {
		t.Errorf("18-tile chip: err = %v, want a tile-count error", err)
	}
	// 24 tiles, 6 threads per application: the chip divides, the
	// applications do not.
	if _, err := (ClusterSA{}).Map(context.Background(), problem(4, 6, 4)); err == nil || !strings.Contains(err.Error(), "6 threads, not a multiple of cluster size 4") {
		t.Errorf("6-thread applications: err = %v, want a thread-count error", err)
	}
}

// TestClusterSAGoldenMappings pins the exact mapping ClusterSA returns,
// not just its objective value: every paper configuration, and an 18x18
// chip of 9 applications x 36 threads, whose 81 clusters make ownership
// sets that do not fit a 64-bit mask.
func TestClusterSAGoldenMappings(t *testing.T) {
	wide := workload.MustGenerate(workload.GenSpec{
		Name: "wide", NumApps: 9, ThreadsPer: 36,
		Cache: workload.Stats{Mean: 8, Std: 10}, Mem: workload.Stats{Mean: 1.2, Std: 3},
		Seed: 5,
	})
	wideP := core.MustNewProblem(model.MustNew(mesh.MustNew(18, 18), model.DefaultParams()), wide)
	cases := []struct {
		name string
		p    *core.Problem
		m    ClusterSA
		want string
	}{
		{"C1", paperProblem(t, "C1"), ClusterSA{Seed: 1}, "1c2c393a9b3aab51"},
		{"C2", paperProblem(t, "C2"), ClusterSA{Seed: 1}, "aa86250115249d67"},
		{"C3", paperProblem(t, "C3"), ClusterSA{Seed: 1}, "08357d1b17431ca7"},
		{"C4", paperProblem(t, "C4"), ClusterSA{Seed: 1}, "2939055cad2c19bb"},
		{"C5", paperProblem(t, "C5"), ClusterSA{Seed: 1}, "df842c87935010c3"},
		{"C6", paperProblem(t, "C6"), ClusterSA{Seed: 1}, "37e8ed7c7861770d"},
		{"C7", paperProblem(t, "C7"), ClusterSA{Seed: 1}, "b56ae29e40e34ecd"},
		{"C8", paperProblem(t, "C8"), ClusterSA{Seed: 1}, "5ea4e26d0a9dbf83"},
		{"18x18", wideP, ClusterSA{Seed: 6}, "caf5d8ca1ae1674f"},
	}
	for _, c := range cases {
		m, err := MapAndCheck(context.Background(), c.m, c.p)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := mappingFingerprint(m); got != c.want {
			t.Errorf("%s: mapping fingerprint %s, want %s", c.name, got, c.want)
		}
	}
}

// TestClusterSAOrdering places ClusterSA where the
// literature puts it: clearly better than random on balance, but not
// able to out-fine-tune SSS.
func TestClusterSAOrdering(t *testing.T) {
	var csaDev, sssDev, rndDev float64
	for _, cfg := range []string{"C1", "C3", "C6"} {
		p := paperProblem(t, cfg)
		cm, err := MapAndCheck(context.Background(), ClusterSA{Seed: 2}, p)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := MapAndCheck(context.Background(), SortSelectSwap{}, p)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRand(3)
		var rnd float64
		for i := 0; i < 50; i++ {
			rnd += p.Evaluate(core.RandomMapping(p.N(), rng)).DevAPL
		}
		csaDev += p.Evaluate(cm).DevAPL
		sssDev += p.Evaluate(sm).DevAPL
		rndDev += rnd / 50
	}
	if csaDev >= rndDev {
		t.Errorf("ClusterSA dev %.3f should beat random %.3f", csaDev, rndDev)
	}
	if sssDev >= csaDev {
		t.Errorf("SSS dev %.4f should beat ClusterSA %.4f", sssDev, csaDev)
	}
}
