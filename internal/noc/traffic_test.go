package noc

import (
	"testing"

	"obm/internal/mesh"
	"obm/internal/stats"
)

func TestPatternsProduceValidDestinations(t *testing.T) {
	m := mesh.MustNew(4, 4)
	rng := stats.NewRand(1)
	pats := []Pattern{UniformRandom{}, Transpose{}, BitComplement{}, Hotspot{Hot: 5}}
	for _, pat := range pats {
		if pat.Name() == "" {
			t.Error("empty pattern name")
		}
		for _, src := range m.Tiles() {
			for i := 0; i < 10; i++ {
				dst := pat.Dst(m, src, rng)
				if !m.Contains(dst) {
					t.Fatalf("%s: dst %d out of range", pat.Name(), dst)
				}
			}
		}
	}
}

func TestTransposeAndBitComplement(t *testing.T) {
	m := mesh.MustNew(4, 4)
	if got := (Transpose{}).Dst(m, m.TileAt(1, 3), nil); got != m.TileAt(3, 1) {
		t.Errorf("transpose(1,3) = %v, want (3,1)", m.Coord(got))
	}
	if got := (BitComplement{}).Dst(m, m.TileAt(0, 1), nil); got != m.TileAt(3, 2) {
		t.Errorf("bit-complement(0,1) = %v, want (3,2)", m.Coord(got))
	}
	// Transpose on a rectangular mesh clamps rather than escaping.
	r := mesh.MustNew(2, 5)
	for _, src := range r.Tiles() {
		if dst := (Transpose{}).Dst(r, src, nil); !r.Contains(dst) {
			t.Fatalf("transpose escaped rectangular mesh at %d", src)
		}
	}
}

func TestHotspotFraction(t *testing.T) {
	m := mesh.MustNew(4, 4)
	rng := stats.NewRand(3)
	h := Hotspot{Hot: 7}
	hot := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if h.Dst(m, 0, rng) == 7 {
			hot++
		}
	}
	frac := float64(hot) / trials
	// 0.2 hotspot fraction plus uniform traffic that also lands on 7.
	want := 0.2 + 0.8/16
	if frac < want-0.03 || frac > want+0.03 {
		t.Errorf("hotspot fraction %.3f, want ~%.3f", frac, want)
	}
}

func TestLoadSweepValidation(t *testing.T) {
	msh := testMesh()
	if _, err := MeasureLoadPoint(msh, UniformRandom{}, 0.01, SweepConfig{}); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := MeasureLoadPoint(nil, UniformRandom{}, 0.01, DefaultSweepConfig()); err == nil {
		t.Error("nil mesh accepted")
	}
}

// TestLoadSweepShape is the classic simulator validation: latency sits
// at the zero-load bound for light loads and rises monotonically (with
// slack for noise) toward saturation.
func TestLoadSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep simulates; skip under -short")
	}
	msh := testMesh()
	rates := []float64{0.01, 0.05, 0.15, 0.30}
	sw := SweepConfig{Cycles: 5_000, Seed: 2}
	var pts []LoadPoint
	for _, rate := range rates {
		pt, err := MeasureLoadPoint(msh, UniformRandom{}, rate, sw)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, pt)
	}
	if len(pts) != len(rates) {
		t.Fatalf("%d points", len(pts))
	}
	zero, err := ZeroLoadLatency(msh, UniformRandom{}, 100000, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Light load: within ~15% of the zero-load bound and never below it
	// by more than sampling noise.
	if pts[0].AvgLatency < zero*0.9 || pts[0].AvgLatency > zero*1.15 {
		t.Errorf("light-load latency %.2f vs zero-load bound %.2f", pts[0].AvgLatency, zero)
	}
	// Heaviest load is strictly slower than lightest.
	last := pts[len(pts)-1]
	if last.AvgLatency <= pts[0].AvgLatency {
		t.Errorf("latency did not rise with load: %.2f -> %.2f", pts[0].AvgLatency, last.AvgLatency)
	}
	// Throughput tracks offered load before saturation.
	if !pts[0].Saturated {
		if pts[0].Throughput < pts[0].InjectionRate*0.9 {
			t.Errorf("throughput %.4f below offered %.4f pre-saturation", pts[0].Throughput, pts[0].InjectionRate)
		}
	}
}

// TestLoadPointSaturated pins the saturated verdict on the loadsweep
// experiment's quick window and seed: a 20% hotspot on the default mesh
// cannot carry 0.12 packets/tile/cycle, while light uniform traffic is
// carried in full.
func TestLoadPointSaturated(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep simulates; skip under -short")
	}
	msh := mesh.MustNew(8, 8)
	sw := SweepConfig{Cycles: 8_000, Seed: 42}
	cases := []struct {
		pat  Pattern
		rate float64
		want bool
	}{
		{Hotspot{Hot: 27}, 0.12, true},
		{UniformRandom{}, 0.01, false},
	}
	for _, c := range cases {
		pt, err := MeasureLoadPoint(msh, c.pat, c.rate, sw)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Saturated != c.want {
			t.Errorf("%s at %.2f: saturated %v, want %v (throughput %.4f, latency %.2f)",
				c.pat.Name(), c.rate, pt.Saturated, c.want, pt.Throughput, pt.AvgLatency)
		}
	}
}

func TestZeroLoadLatencyValidation(t *testing.T) {
	if _, err := ZeroLoadLatency(testMesh(), UniformRandom{}, 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Error("empty histogram should be zero")
	}
	for v := int64(1); v <= 100; v++ {
		h.Add(v)
	}
	if h.Count() != 100 {
		t.Errorf("count %d", h.Count())
	}
	if got := h.Mean(); got != 50.5 {
		t.Errorf("mean %v, want 50.5", got)
	}
	if got := h.Percentile(0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := h.Percentile(100); got != 100 {
		t.Errorf("P100 = %v, want 100", got)
	}
	if got := h.Percentile(50); got < 49 || got > 52 {
		t.Errorf("P50 = %v, want ~50", got)
	}
	// Overflow clamps.
	h.Add(100000)
	h.Add(-5)
	if got := h.Percentile(100); got != maxBucket {
		t.Errorf("overflow P100 = %v, want %d", got, maxBucket)
	}
}

func TestPerAppHistogramsPopulated(t *testing.T) {
	n := MustNew(testMesh())
	for i := 0; i < 50; i++ {
		n.Inject(&Packet{Src: 0, Dst: 15, Type: CacheRequest, App: 1})
	}
	if err := n.Drain(100000); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if len(st.HistByApp) < 2 || st.HistByApp[1].Count() != 50 {
		t.Fatalf("histogram not populated: %+v", len(st.HistByApp))
	}
	if st.AppPercentile(1, 50) <= 0 {
		t.Error("P50 should be positive")
	}
	if st.AppPercentile(9, 50) != 0 || st.AppPercentile(-1, 50) != 0 {
		t.Error("out-of-range app should give 0")
	}
	// P99 >= P50 >= mean-ish sanity.
	if st.AppPercentile(1, 99) < st.AppPercentile(1, 50) {
		t.Error("percentiles not monotone")
	}
}
