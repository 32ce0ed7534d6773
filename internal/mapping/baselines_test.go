package mapping

import (
	"context"
	"strings"
	"testing"

	"obm/internal/core"
	"obm/internal/stats"
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
	gOpt, gGreedy := p.GlobalAPL(gm), p.GlobalAPL(hm)
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

func TestClusterSARejectsBadGeometry(t *testing.T) {
	p := paperProblem(t, "C1")
	if _, err := (ClusterSA{ClusterSize: 3}).Map(context.Background(), p); err == nil {
		t.Error("cluster size 3 should not divide 16-thread apps cleanly... (64%3 != 0)")
	}
	if _, err := (ClusterSA{ClusterSize: 5}).Map(context.Background(), p); err == nil {
		t.Error("cluster size 5 accepted")
	}
}

// TestClusterSABetterThanRandomWorseThanSSS places ClusterSA where the
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
