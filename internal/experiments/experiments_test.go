package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Quick: true, Seed: 1} }

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablation", "burst", "capacity", "congestion", "dynamic", "dynstream", "fig10", "fig11", "fig12", "fig3", "fig4",
		"fig5", "fig8", "fig9", "gap", "loadsweep", "objective", "pareto", "placement", "scaling", "seeds",
		"table1", "table3", "table4", "tail", "topology", "validate"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
	if len(All()) != len(want) {
		t.Error("All() length mismatch")
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
	r, err := Get("table1")
	if err != nil || r.ID() != "table1" {
		t.Errorf("Get(table1) = %v, %v", r, err)
	}
}

// TestTable1Shape pins the paper's Table 1 directional claims.
func TestTable1Shape(t *testing.T) {
	res, err := table1{}.Run(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Table1Result)
	if len(r.Rows) != 4 {
		t.Fatalf("expected C1..C4, got %d rows", len(r.Rows))
	}
	if !(r.Avg.GlobalGAPL < r.Avg.RandGAPL) {
		t.Error("Global should reduce g-APL vs random")
	}
	if !(r.Avg.GlobalDevAPL > r.Avg.RandDevAPL) {
		t.Error("Global should increase dev-APL vs random (the imbalance claim)")
	}
	if !(r.Avg.GlobalMaxAPL > r.Avg.RandMaxAPL) {
		t.Error("Global should increase max-APL vs random")
	}
}

// TestTable4Shape pins the Table 4 ordering: SSS has the smallest
// average dev-APL, Global the largest.
func TestTable4Shape(t *testing.T) {
	res, err := table4{}.Run(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Table4Result)
	avgs := map[string]float64{}
	for i, n := range r.Mappers {
		avgs[n] = r.avg(i)
	}
	if !(avgs["SSS"] < avgs["Global"] && avgs["SSS"] < avgs["MC"]) {
		t.Errorf("SSS should have the lowest dev-APL: %+v", avgs)
	}
	if !(avgs["Global"] > avgs["MC"] && avgs["Global"] > avgs["SA"]) {
		t.Errorf("Global should have the highest dev-APL: %+v", avgs)
	}
}

// TestFig9Shape: SSS's average max-APL beats Global's by a margin in
// the paper's neighbourhood (paper: 10.42%).
func TestFig9Shape(t *testing.T) {
	res, err := fig9{}.Run(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*MapperSeries)
	var global, sss float64
	for i, n := range r.Mappers {
		switch n {
		case "Global":
			global = r.avg(i)
		case "SSS":
			sss = r.avg(i)
		}
	}
	redux := (global - sss) / global
	if redux < 0.04 || redux > 0.25 {
		t.Errorf("SSS max-APL reduction vs Global = %.1f%%, want in [4%%, 25%%] (paper 10.42%%)", redux*100)
	}
}

// TestFig10Shape: SSS g-APL overhead vs Global stays under 8%.
func TestFig10Shape(t *testing.T) {
	res, err := fig10{}.Run(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*MapperSeries)
	var global, sss float64
	for i, n := range r.Mappers {
		switch n {
		case "Global":
			global = r.avg(i)
		case "SSS":
			sss = r.avg(i)
		}
	}
	if loss := (sss - global) / global; loss < 0 || loss > 0.08 {
		t.Errorf("SSS g-APL overhead = %.2f%%, want within (0%%, 8%%] (paper <3.82%%)", loss*100)
	}
}

// TestFig11Shape: SSS dynamic power within a few percent of Global.
func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the NoC; skip under -short")
	}
	res, err := fig11{}.Run(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*MapperSeries)
	var global, sss float64
	for i, n := range r.Mappers {
		switch n {
		case "Global":
			global = r.avg(i)
		case "SSS":
			sss = r.avg(i)
		}
	}
	if global <= 0 {
		t.Fatal("no power measured")
	}
	if over := (sss - global) / global; over > 0.08 || over < -0.05 {
		t.Errorf("SSS power overhead = %.2f%% vs Global, want within [-5%%, 8%%] (paper <2.7%%)", over*100)
	}
}

// TestFig12Shape: SA quality improves with budget, and at 0.1x SSS
// runtime SA is clearly worse than SSS.
func TestFig12Shape(t *testing.T) {
	res, err := fig12{}.Run(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig12Result)
	if len(r.SAMaxAPL) < 2 {
		t.Fatal("need at least two budgets")
	}
	first, last := r.SAMaxAPL[0], r.SAMaxAPL[len(r.SAMaxAPL)-1]
	if last > first {
		t.Errorf("SA should improve with budget: %.3f -> %.3f", first, last)
	}
	if first <= r.SSSMaxAPL {
		t.Errorf("SA at 0.1x runtime (%.3f) should be worse than SSS (%.3f)", first, r.SSSMaxAPL)
	}
}

// TestFig5PinsPaperNumbers verifies the worked example digit-for-digit.
func TestFig5PinsPaperNumbers(t *testing.T) {
	res, err := fig5{}.Run(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig5Result)
	if math.Abs(r.GoodAPL-10.3375) > 1e-9 {
		t.Errorf("optimal APL = %v, want 10.3375", r.GoodAPL)
	}
	if math.Abs(r.BadAPL-11.5375) > 1e-9 {
		t.Errorf("equally-bad APL = %v, want 11.5375", r.BadAPL)
	}
	if r.GoodDev > 1e-9 || r.BadDev > 1e-9 {
		t.Error("both mappings should have zero dev-APL")
	}
	if r.GoodRatio < 1-1e-9 || r.BadRatio < 1-1e-9 {
		t.Error("both mappings should have min/max ratio 1")
	}
	if r.SSSMaxAPL > 10.3375+0.15 {
		t.Errorf("SSS on the worked example found %.4f, want ~10.3375", r.SSSMaxAPL)
	}
}

func TestTable3Close(t *testing.T) {
	res, err := table3{}.Run(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Table3Result)
	if len(r.Rows) != 8 {
		t.Fatalf("expected 8 configs, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		rel := func(a, b float64) float64 {
			if b == 0 {
				return a
			}
			return (a - b) / b
		}
		if d := rel(row.Got.Cache.Mean, row.Want.Cache.Mean); d > 0.01 || d < -0.01 {
			t.Errorf("%s cache mean off by %.2f%%", row.Config, 100*d)
		}
	}
}

func TestRenderHelpers(t *testing.T) {
	tb := newTable("T", "a", "b")
	tb.addRow("1", "2")
	tb.addRowf("%.1f", 3.14159, "x")
	out := tb.Render()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "3.1") {
		t.Errorf("table render: %q", out)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("csv: %q", csv)
	}
	tb.addRow(`quo"te`, "with,comma")
	if !strings.Contains(tb.CSV(), `"quo""te"`) {
		t.Error("csv quoting broken")
	}
	grid := renderGrid("G", [][]int{{1, 2}, {3, 4}})
	if !strings.Contains(grid, " 1 ") || !strings.Contains(grid, "G\n") {
		t.Errorf("grid render: %q", grid)
	}
	hm := renderHeatmap("H", [][]float64{{0, 1}, {2, 3}}, "")
	if !strings.Contains(hm, "range") {
		t.Errorf("heatmap render: %q", hm)
	}
	// Notes are render-only, so the CSV form is just the separator.
	mr := multi{parts: []Result{newDoc().add(Note("x")), newDoc().add(Note("y"))}}
	if mr.Render() != "x\ny" || mr.CSV() != "\n" {
		t.Error("multi render broken")
	}
}

func TestOptionsSpec(t *testing.T) {
	q, err := Options{Quick: true}.Spec("C1", "C2")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Options{}.Spec("C1", "C2")
	if err != nil {
		t.Fatal(err)
	}
	if !(q.Budget.RandomDraws < f.Budget.RandomDraws) || !(q.Budget.MCSamples < f.Budget.MCSamples) || !(q.Budget.SAIters < f.Budget.SAIters) {
		t.Error("quick budgets should be smaller")
	}
	if f.Budget.MCSamples != 10_000 {
		t.Errorf("full MC budget %d, paper uses 10^4", f.Budget.MCSamples)
	}
	if len(f.Configs) != 2 || f.Configs[0] != "C1" {
		t.Errorf("spec should carry the default configs, got %v", f.Configs)
	}
	// Explicit configs override the defaults; unknown names fail fast.
	ov, err := Options{Configs: []string{"C5"}}.Spec("C1")
	if err != nil || len(ov.Configs) != 1 || ov.Configs[0] != "C5" {
		t.Errorf("explicit configs should win: %v, %v", ov.Configs, err)
	}
	if _, err := (Options{Configs: []string{"nope"}}).Spec("C1"); err == nil {
		t.Error("unknown config accepted")
	}
}

func TestStreamOptionValidation(t *testing.T) {
	o := quickOpts()
	o.Stream = "load=0.8,maxthreads=24"
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	o.Stream = "bogus=1"
	if err := o.Validate(); err == nil {
		t.Error("bad stream spec accepted")
	}
}
