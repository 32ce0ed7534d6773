package workload

import (
	"fmt"
	"math"
	"testing"
)

func TestConfigUnknown(t *testing.T) {
	if _, err := Config("C99"); err == nil {
		t.Error("unknown config accepted")
	}
}

func TestMustConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustConfig with bad name should panic")
		}
	}()
	MustConfig("nope")
}

func TestConfigShape(t *testing.T) {
	for _, name := range ConfigNames() {
		w := MustConfig(name)
		if w.NumApps() != 4 {
			t.Errorf("%s: %d apps, want 4", name, w.NumApps())
		}
		if w.NumThreads() != 64 {
			t.Errorf("%s: %d threads, want 64", name, w.NumThreads())
		}
		for i := range w.Apps {
			if len(w.Apps[i].Threads) != 16 {
				t.Errorf("%s app %d: %d threads, want 16", name, i, len(w.Apps[i].Threads))
			}
		}
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestConfigsMatchTable3 is the Table 3 reproduction: the generated
// configurations' rate statistics must match the published targets.
func TestConfigsMatchTable3(t *testing.T) {
	for _, name := range ConfigNames() {
		w := MustConfig(name)
		got := w.ComputeRateStats()
		want := Table3[name]
		rel := func(a, b float64) float64 {
			if b == 0 {
				return math.Abs(a)
			}
			return math.Abs(a-b) / b
		}
		if rel(got.Cache.Mean, want.Cache.Mean) > 0.01 {
			t.Errorf("%s cache mean = %.4f, want %.4f", name, got.Cache.Mean, want.Cache.Mean)
		}
		if rel(got.Cache.Std, want.Cache.Std) > 0.01 {
			t.Errorf("%s cache std = %.4f, want %.4f", name, got.Cache.Std, want.Cache.Std)
		}
		if rel(got.Mem.Mean, want.Mem.Mean) > 0.01 {
			t.Errorf("%s mem mean = %.4f, want %.4f", name, got.Mem.Mean, want.Mem.Mean)
		}
		if rel(got.Mem.Std, want.Mem.Std) > 0.01 {
			t.Errorf("%s mem std = %.4f, want %.4f", name, got.Mem.Std, want.Mem.Std)
		}
	}
}

func TestConfigDeterminism(t *testing.T) {
	a := MustConfig("C3")
	b := MustConfig("C3")
	at, bt := a.Threads(), b.Threads()
	for i := range at {
		if at[i] != bt[i] {
			t.Fatal("Config must be deterministic")
		}
	}
}

func TestConfigsDiffer(t *testing.T) {
	a := MustConfig("C1")
	b := MustConfig("C2")
	if a.ComputeRateStats() == b.ComputeRateStats() {
		t.Error("C1 and C2 have identical statistics")
	}
}

// TestAllConfigs: the eight paper configurations C1..C8 each build
// under their own name.
func TestAllConfigs(t *testing.T) {
	names := ConfigNames()
	if len(names) != 8 {
		t.Fatalf("%d configuration names, want 8", len(names))
	}
	for i, name := range names {
		if want := fmt.Sprintf("C%d", i+1); name != want {
			t.Errorf("configuration %d is %q, want %q", i, name, want)
		}
		if w := MustConfig(name); w.Name != name {
			t.Errorf("configuration %s built as %q", name, w.Name)
		}
	}
}

func TestCacheMemRatioPlausible(t *testing.T) {
	// The paper reports cache rates ~6.78x memory rates on average; the
	// generated configurations should preserve a high cache:memory ratio.
	for _, name := range ConfigNames() {
		w := MustConfig(name)
		rs := w.ComputeRateStats()
		ratio := rs.Cache.Mean / rs.Mem.Mean
		if ratio < 3 || ratio > 12 {
			t.Errorf("%s cache:mem ratio = %.2f, want within [3,12]", name, ratio)
		}
	}
}

func TestFigure5Workload(t *testing.T) {
	w := Figure5Workload()
	if w.NumApps() != 4 || w.NumThreads() != 16 {
		t.Fatalf("figure5: %d apps, %d threads", w.NumApps(), w.NumThreads())
	}
	for _, app := range w.Apps {
		rates := app.CacheRates()
		want := []float64{0.1, 0.2, 0.3, 0.4}
		for i := range want {
			if rates[i] != want[i] {
				t.Fatalf("rates = %v", rates)
			}
		}
		for _, th := range app.Threads {
			if th.MemRate != 0 {
				t.Fatal("figure5 threads must have zero memory traffic")
			}
		}
	}
}
