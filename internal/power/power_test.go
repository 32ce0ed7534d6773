package power

import (
	"math"
	"testing"

	"obm/internal/mesh"
	"obm/internal/noc"
)

// near reports whether got is within 1e-12 relative error of want.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Abs(want)
}

func TestPerFlitHop(t *testing.T) {
	// 0.60 + 0.55 + 1.05 + 0.12 + 1.30 pJ.
	if !near(perFlitHop, 3.62) {
		t.Errorf("perFlitHop = %v, want 3.62", perFlitHop)
	}
	// The constant rounds to the float64 that summing the terms at run
	// time yields, which the Figure 11 and Pareto goldens depend on.
	terms := []float64{bufWrite, bufRead, crossbar, arbiter, link}
	var sum float64
	for _, e := range terms {
		sum += e
	}
	if math.Float64bits(perFlitHop) != math.Float64bits(sum) {
		t.Errorf("perFlitHop = %.20g, run-time sum %.20g", float64(perFlitHop), sum)
	}
	if got := EstimateEnergy(10); !near(got, 36.2) {
		t.Errorf("EstimateEnergy(10) = %v, want 36.2", got)
	}
}

func TestEstimateZeroTraffic(t *testing.T) {
	rep := Estimate(mesh.MustNew(8, 8), noc.Stats{Cycles: 1000})
	if rep.DynamicW != 0 {
		t.Errorf("idle dynamic power = %v, want 0", rep.DynamicW)
	}
	if rep.StaticW <= 0 {
		t.Error("leakage should be positive")
	}
}

func TestEstimateScalesWithActivity(t *testing.T) {
	m := mesh.MustNew(8, 8)
	st1 := noc.Stats{Cycles: 1000, FlitHops: 100, InjectedFlits: 10, DeliveredFlits: 10}
	st2 := noc.Stats{Cycles: 1000, FlitHops: 200, InjectedFlits: 20, DeliveredFlits: 20}
	r1, r2 := Estimate(m, st1), Estimate(m, st2)
	if math.Abs(r2.DynamicW-2*r1.DynamicW) > 1e-12 {
		t.Errorf("doubling activity should double dynamic power: %v vs %v", r1.DynamicW, r2.DynamicW)
	}
	if r1.StaticW != r2.StaticW {
		t.Error("static power should not depend on traffic")
	}
}

func TestEstimateEnergyAccounting(t *testing.T) {
	st := noc.Stats{Cycles: 100, FlitHops: 10, InjectedFlits: 4, DeliveredFlits: 4}
	rep := Estimate(mesh.MustNew(4, 4), st)
	// 10 flit-hops at 3.62 pJ, 4 buffer writes at 0.60, 4 reads at 0.55.
	if want := 36.2 + 2.4 + 2.2; !near(rep.EnergyPJ, want) {
		t.Errorf("EnergyPJ = %v, want %v", rep.EnergyPJ, want)
	}
	// 40.8 pJ over 100 cycles at 2 GHz (50 ns).
	if want := 8.16e-4; !near(rep.DynamicW, want) {
		t.Errorf("DynamicW = %v, want %v", rep.DynamicW, want)
	}
}

// TestEstimateLeakage: one router per tile at 2.1 mW and two
// unidirectional links per adjacent tile pair at 0.4 mW.
func TestEstimateLeakage(t *testing.T) {
	cases := []struct {
		r, c int
		want float64 // watts
	}{
		{1, 1, 0.0021}, // 1 router, 0 links
		{1, 2, 0.0050}, // 2 routers, 2 links
		{2, 2, 0.0116}, // 4 routers, 8 links
		{8, 8, 0.2240}, // 64 routers, 224 links
		{3, 5, 0.0491}, // 15 routers, 44 links
	}
	for _, cs := range cases {
		rep := Estimate(mesh.MustNew(cs.r, cs.c), noc.Stats{Cycles: 1})
		if !near(rep.StaticW, cs.want) {
			t.Errorf("%dx%d leakage = %v W, want %v", cs.r, cs.c, rep.StaticW, cs.want)
		}
	}
}
