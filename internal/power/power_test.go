package power

import (
	"math"
	"testing"

	"obm/internal/noc"
)

func TestParamsValidate(t *testing.T) {
	if err := Default45nm().Validate(); err != nil {
		t.Fatal(err)
	}
	p := Default45nm()
	p.Link = -1
	if err := p.Validate(); err == nil {
		t.Error("negative link energy accepted")
	}
	p = Default45nm()
	p.ClockGHz = 0
	if err := p.Validate(); err == nil {
		t.Error("zero clock accepted")
	}
}

func TestPerFlitHop(t *testing.T) {
	p := Params{BufWrite: 1, BufRead: 2, Crossbar: 3, Arbiter: 4, Link: 5, ClockGHz: 1}
	if got := p.PerFlitHop(); got != 15 {
		t.Errorf("PerFlitHop = %v, want 15", got)
	}
}

func TestEstimateZeroTraffic(t *testing.T) {
	rep, err := Estimate(Default45nm(), noc.Stats{Cycles: 1000}, 64, MeshLinkCount(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DynamicW != 0 {
		t.Errorf("idle dynamic power = %v, want 0", rep.DynamicW)
	}
	if rep.StaticW <= 0 {
		t.Error("leakage should be positive")
	}
}

func TestEstimateScalesWithActivity(t *testing.T) {
	p := Default45nm()
	st1 := noc.Stats{Cycles: 1000, FlitHops: 100, InjectedFlits: 10, DeliveredFlits: 10}
	st2 := noc.Stats{Cycles: 1000, FlitHops: 200, InjectedFlits: 20, DeliveredFlits: 20}
	r1, err := Estimate(p, st1, 64, 224)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Estimate(p, st2, 64, 224)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2.DynamicW-2*r1.DynamicW) > 1e-12 {
		t.Errorf("doubling activity should double dynamic power: %v vs %v", r1.DynamicW, r2.DynamicW)
	}
	if r1.StaticW != r2.StaticW {
		t.Error("static power should not depend on traffic")
	}
}

func TestEstimateEnergyAccounting(t *testing.T) {
	p := Params{BufWrite: 1, BufRead: 1, Crossbar: 1, Arbiter: 1, Link: 1, ClockGHz: 2}
	st := noc.Stats{Cycles: 100, FlitHops: 10, InjectedFlits: 4, DeliveredFlits: 4}
	rep, err := Estimate(p, st, 16, 48)
	if err != nil {
		t.Fatal(err)
	}
	want := 10*5.0 + 4*1 + 4*1
	if math.Abs(rep.EnergyPJ-want) > 1e-12 {
		t.Errorf("EnergyPJ = %v, want %v", rep.EnergyPJ, want)
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, err := Estimate(Params{ClockGHz: -1}, noc.Stats{}, 1, 1); err == nil {
		t.Error("bad params accepted")
	}
	if _, err := Estimate(Default45nm(), noc.Stats{}, -1, 0); err == nil {
		t.Error("negative router count accepted")
	}
}

func TestMeshLinkCount(t *testing.T) {
	cases := []struct{ r, c, want int }{
		{1, 1, 0},
		{1, 2, 2},
		{2, 2, 8},
		{8, 8, 224},
		{0, 5, 0},
	}
	for _, cs := range cases {
		if got := MeshLinkCount(cs.r, cs.c); got != cs.want {
			t.Errorf("MeshLinkCount(%d,%d) = %d, want %d", cs.r, cs.c, got, cs.want)
		}
	}
}
