package sim

import (
	"context"
	"math"
	"strings"
	"testing"

	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/noc"
	"obm/internal/workload"
)

func paperProblem(t testing.TB, cfg string) *core.Problem {
	t.Helper()
	lm := model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
	return core.MustNewProblem(lm, workload.MustConfig(cfg))
}

func shortRateConfig() RateDrivenConfig {
	c := DefaultRateDrivenConfig()
	c.MeasureCycles = 30_000
	return c
}

func TestRateDrivenValidation(t *testing.T) {
	p := paperProblem(t, "C1")
	bad := make(core.Mapping, 3)
	if _, err := RateDriven(context.Background(), p, bad, shortRateConfig()); err == nil {
		t.Error("invalid mapping accepted")
	}
	m := core.IdentityMapping(p.N())
	cfg := shortRateConfig()
	cfg.MeasureCycles = 0
	if _, err := RateDriven(context.Background(), p, m, cfg); err == nil {
		t.Error("zero window accepted")
	}
}

// TestPerHopLatencyMatchesModel ties the two homes of Table 2's
// uncontended per-hop latency together: the simulated router pipeline
// plus link must cost exactly the analytic model's td_r + td_w.
func TestPerHopLatencyMatchesModel(t *testing.T) {
	p := model.DefaultParams()
	if got, want := float64(noc.PerHopLatency), p.TdR+p.TdW; got != want {
		t.Errorf("noc.PerHopLatency = %v, model td_r + td_w = %v", got, want)
	}
}

// TestRateDrivenRejectsTorus: the flit-level network is a mesh, so a
// torus-model problem is refused by name rather than simulated on the
// wrong topology.
func TestRateDrivenRejectsTorus(t *testing.T) {
	msh := mesh.MustNew(8, 8)
	lm, err := model.NewTorus(msh, model.DefaultParams(), model.CornersPlacement(msh))
	if err != nil {
		t.Fatal(err)
	}
	p := core.MustNewProblem(lm, workload.MustConfig("C1"))
	_, err = RateDriven(context.Background(), p, core.IdentityMapping(p.N()), shortRateConfig())
	if err == nil || !strings.Contains(err.Error(), "torus") {
		t.Fatalf("RateDriven on a torus problem: err = %v, want one naming the torus", err)
	}
}

// TestRateDrivenMatchesAnalyticModel is the Garnet-substitution
// validation: measured per-application APLs must track the analytic
// model's prediction within a couple of cycles at paper-scale loads.
func TestRateDrivenMatchesAnalyticModel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	p := paperProblem(t, "C1")
	m, err := mapping.MapAndCheck(context.Background(), mapping.SortSelectSwap{}, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RateDriven(context.Background(), p, m, DefaultRateDrivenConfig())
	if err != nil {
		t.Fatal(err)
	}
	pred := p.Evaluate(m)
	for a := 0; a < p.NumApps(); a++ {
		if res.Net.ByApp[a].Packets == 0 {
			t.Fatalf("app %d sent no packets", a)
		}
		diff := math.Abs(res.AppAPL[a] - pred.APLs[a])
		if diff > 2.5 {
			t.Errorf("app %d: measured APL %.2f vs model %.2f (|diff| %.2f > 2.5 cycles)",
				a, res.AppAPL[a], pred.APLs[a], diff)
		}
	}
}

// TestRateDrivenQueuingSmall verifies the paper's Section II.C
// observation that queuing latency is ~0-1 cycles per hop at these
// loads.
func TestRateDrivenQueuingSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	p := paperProblem(t, "C4") // the heaviest-rate configuration
	m, err := mapping.MapAndCheck(context.Background(), mapping.Global{}, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RateDriven(context.Background(), p, m, shortRateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if q := res.Net.AvgQueuingPerHop(); q < 0 || q > 1.0 {
		t.Errorf("avg queuing per hop = %.3f cycles, paper observes 0..1", q)
	}
}

// TestRateDrivenOrderingSSSvsGlobal: the measured max-APL under SSS
// must beat Global's, reproducing the paper's headline through the full
// flit-level substrate rather than the analytic model.
func TestRateDrivenOrderingSSSvsGlobal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	p := paperProblem(t, "C6")
	gm, err := mapping.MapAndCheck(context.Background(), mapping.Global{}, p)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := mapping.MapAndCheck(context.Background(), mapping.SortSelectSwap{}, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRateDrivenConfig()
	gRes, err := RateDriven(context.Background(), p, gm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sRes, err := RateDriven(context.Background(), p, sm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sRes.MaxAPL >= gRes.MaxAPL {
		t.Errorf("measured max-APL: SSS %.2f >= Global %.2f", sRes.MaxAPL, gRes.MaxAPL)
	}
	if sRes.DevAPL >= gRes.DevAPL {
		t.Errorf("measured dev-APL: SSS %.3f >= Global %.3f", sRes.DevAPL, gRes.DevAPL)
	}
}

func TestRateDrivenDeterminism(t *testing.T) {
	p := paperProblem(t, "C2")
	m := core.IdentityMapping(p.N())
	cfg := shortRateConfig()
	a, err := RateDriven(context.Background(), p, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RateDriven(context.Background(), p, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.GlobalAPL != b.GlobalAPL || a.Net.FlitHops != b.Net.FlitHops || a.Cycles != b.Cycles {
		t.Error("rate-driven simulation not deterministic")
	}
}

func TestRateDrivenConservation(t *testing.T) {
	p := paperProblem(t, "C3")
	m := core.IdentityMapping(p.N())
	res, err := RateDriven(context.Background(), p, m, shortRateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Net.InjectedPackets != res.Net.DeliveredPackets {
		t.Errorf("packets lost: injected %d delivered %d",
			res.Net.InjectedPackets, res.Net.DeliveredPackets)
	}
	if res.Net.InjectedFlits != res.Net.DeliveredFlits {
		t.Errorf("flits lost: injected %d delivered %d",
			res.Net.InjectedFlits, res.Net.DeliveredFlits)
	}
	// Requests beget replies: roughly half the packets are replies.
	by := &res.Net.ByType
	reqs := by[noc.CacheRequest].Packets + by[noc.MemRequest].Packets
	reps := by[noc.CacheReply].Packets + by[noc.MemReply].Packets
	if reqs != reps {
		t.Errorf("requests %d != replies %d", reqs, reps)
	}
}

// TestRateDrivenBursty: on/off modulation preserves the long-run mean
// packet count (within sampling noise) while increasing queuing.
func TestRateDrivenBursty(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	p := paperProblem(t, "C4")
	m := core.IdentityMapping(p.N())
	cfg := DefaultRateDrivenConfig()
	cfg.MeasureCycles = 120_000
	smooth, err := RateDriven(context.Background(), p, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BurstFactor = 8
	bursty, err := RateDriven(context.Background(), p, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(bursty.Net.InjectedPackets) / float64(smooth.Net.InjectedPackets)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("bursty injected %.2fx the smooth packet count, want ~1.0", ratio)
	}
	if bursty.Net.AvgQueuingPerHop() <= smooth.Net.AvgQueuingPerHop() {
		t.Errorf("bursty queuing %.3f not above smooth %.3f",
			bursty.Net.AvgQueuingPerHop(), smooth.Net.AvgQueuingPerHop())
	}
	if bursty.Net.InjectedPackets != bursty.Net.DeliveredPackets {
		t.Error("bursty packets lost")
	}
}

// TestMemController: a request entering an idle controller is ready
// memLatency cycles later; a second one in the same cycle waits out the
// bandwidth gap first.
func TestMemController(t *testing.T) {
	var mc memController
	if got, want := mc.Submit(100), int64(100+memLatency); got != want {
		t.Errorf("first request ready at %d, want %d", got, want)
	}
	if got, want := mc.Submit(100), int64(100+memGap+memLatency); got != want {
		t.Errorf("second request ready at %d, want %d", got, want)
	}
}
