package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	if _, _, ok := tail(seq(10)); ok {
		t.Fatal("10 samples gave a tail; no percentile has 10 samples beyond it")
	}
	v, pct, ok := tail(seq(11))
	if !ok || v != 1 || math.Abs(pct-100.0/11) > 1e-9 {
		t.Fatalf("tail(11) = %v at p%v (ok %v), want the minimum at p%.3f", v, pct, ok, 100.0/11)
	}
	v, pct, ok = tail(seq(1000))
	if !ok || v != 990 || pct != 99 {
		t.Fatalf("tail(1000) = %v at p%v, want 990 at p99", v, pct)
	}
}

func TestQuantileRequiresTenBeyond(t *testing.T) {
	if v, ok := quantile(seq(1000), 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1000 = %v (ok %v), want 990 with 10 beyond", v, ok)
	}
	if _, ok := quantile(seq(999), 0.99); ok {
		t.Fatal("p99 of 999 samples reported although only 9 lie beyond it")
	}
	if v, ok := quantile(seq(21), 0.5); !ok || v != 11 {
		t.Fatalf("p50 of 21 = %v (ok %v), want 11", v, ok)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100, 10}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 100, 10) = %v, want 10", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean() = %v, want 0", got)
	}
}

func TestCheckMetric(t *testing.T) {
	for _, c := range []struct{ name, unit string }{
		{"run_s", "s"}, {"mapping.NSGA-II.map_ms", "ms"}, {"jobs_per_s", "1/s"},
		{"obs.tracing_overhead_pct", "%"}, {"0x", "count"}, {strings.Repeat("a", 64), "flits/s"},
	} {
		if err := checkMetric(c.name, c.unit, 1); err != nil {
			t.Errorf("checkMetric(%q, %q): %v", c.name, c.unit, err)
		}
	}
	for _, c := range []struct{ name, unit string }{
		{"", "s"}, {"-run", "s"}, {".run", "s"}, {"run s", "s"}, {"mapping.SSS{dev}.calls", "count"},
		{strings.Repeat("a", 65), "s"}, {"run_s", ""}, {"run_s", "per second"}, {"run_s", strings.Repeat("s", 17)},
	} {
		if err := checkMetric(c.name, c.unit, 1); err == nil {
			t.Errorf("checkMetric(%q, %q) accepted an invalid metric", c.name, c.unit)
		}
	}
	if err := checkMetric("run_s", "s", math.NaN()); err == nil {
		t.Error("checkMetric accepted NaN")
	}
}

func TestEveryMetricValidAndUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if err := checkMetric(d.name, d.unit, 0); err != nil {
			t.Error(err)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in step
// with the metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
