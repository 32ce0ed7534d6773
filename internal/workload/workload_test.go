package workload

import (
	"math"
	"strings"
	"testing"
)

func twoAppWorkload() *Workload {
	return &Workload{
		Name: "test",
		Apps: []Application{
			{Name: "a", Threads: []Thread{{CacheRate: 1, MemRate: 0.1}, {CacheRate: 2, MemRate: 0.2}}},
			{Name: "b", Threads: []Thread{{CacheRate: 3, MemRate: 0.3}}},
		},
	}
}

func TestThreadTotalRate(t *testing.T) {
	th := Thread{CacheRate: 2.5, MemRate: 0.5}
	if th.TotalRate() != 3 {
		t.Errorf("TotalRate = %v, want 3", th.TotalRate())
	}
}

func TestApplicationAccessors(t *testing.T) {
	w := twoAppWorkload()
	a := &w.Apps[0]
	if a.NumThreads() != 2 {
		t.Errorf("NumThreads = %d", a.NumThreads())
	}
	if got := a.TotalRate(); math.Abs(got-3.3) > 1e-12 {
		t.Errorf("TotalRate = %v, want 3.3", got)
	}
	cr := a.CacheRates()
	if len(cr) != 2 || cr[0] != 1 || cr[1] != 2 {
		t.Errorf("CacheRates = %v", cr)
	}
	mr := a.MemRates()
	if len(mr) != 2 || mr[0] != 0.1 || mr[1] != 0.2 {
		t.Errorf("MemRates = %v", mr)
	}
}

func TestWorkloadFlattening(t *testing.T) {
	w := twoAppWorkload()
	if w.NumThreads() != 3 || w.NumApps() != 2 {
		t.Fatalf("NumThreads=%d NumApps=%d", w.NumThreads(), w.NumApps())
	}
	b := w.Boundaries()
	want := []int{0, 2, 3}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("Boundaries = %v, want %v", b, want)
		}
	}
	if w.AppOfThread(0) != 0 || w.AppOfThread(1) != 0 || w.AppOfThread(2) != 1 {
		t.Error("AppOfThread wrong")
	}
	if w.AppOfThread(-1) != -1 || w.AppOfThread(3) != -1 {
		t.Error("AppOfThread should return -1 out of range")
	}
	cr := w.CacheRates()
	if len(cr) != 3 || cr[2] != 3 {
		t.Errorf("CacheRates = %v", cr)
	}
	ths := w.Threads()
	if len(ths) != 3 || ths[2].MemRate != 0.3 {
		t.Errorf("Threads = %v", ths)
	}
}

func TestValidate(t *testing.T) {
	if err := twoAppWorkload().Validate(); err != nil {
		t.Errorf("valid workload rejected: %v", err)
	}
	empty := &Workload{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Error("empty workload accepted")
	}
	noThreads := &Workload{Name: "n", Apps: []Application{{Name: "x"}}}
	if err := noThreads.Validate(); err == nil {
		t.Error("app without threads accepted")
	}
	neg := twoAppWorkload()
	neg.Apps[0].Threads[0].CacheRate = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative rate accepted")
	}
	for _, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308} {
		bad := twoAppWorkload()
		bad.Apps[1].Threads[0].MemRate = r
		err := bad.Validate()
		if err == nil {
			t.Errorf("rate %g accepted", r)
		} else if !strings.Contains(err.Error(), `app "`+bad.Apps[1].Name+`" thread 0`) {
			t.Errorf("rate %g: error %q does not name the app and thread", r, err)
		}
	}
}

func TestSortAppsByTotalRate(t *testing.T) {
	w := &Workload{
		Apps: []Application{
			{Name: "heavy", Threads: []Thread{{CacheRate: 100}}},
			{Name: "light", Threads: []Thread{{CacheRate: 1}}},
			{Name: "mid", Threads: []Thread{{CacheRate: 10}}},
		},
	}
	w.SortAppsByTotalRate()
	got := []string{w.Apps[0].Name, w.Apps[1].Name, w.Apps[2].Name}
	want := []string{"light", "mid", "heavy"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted order = %v, want %v", got, want)
		}
	}
}

func TestPadTo(t *testing.T) {
	w := twoAppWorkload()
	if err := w.PadTo(8); err != nil {
		t.Fatal(err)
	}
	if w.NumThreads() != 8 {
		t.Errorf("padded to %d threads, want 8", w.NumThreads())
	}
	idle := w.Apps[len(w.Apps)-1]
	if idle.Name != "idle" || idle.TotalRate() != 0 {
		t.Errorf("idle app = %+v", idle)
	}
	// Padding to current size is a no-op.
	before := w.NumApps()
	if err := w.PadTo(8); err != nil {
		t.Fatal(err)
	}
	if w.NumApps() != before {
		t.Error("no-op pad added an application")
	}
	// Padding below current size errors.
	if err := w.PadTo(3); err == nil {
		t.Error("PadTo below thread count should error")
	}
}

func TestComputeRateStats(t *testing.T) {
	w := &Workload{Apps: []Application{{
		Name:    "a",
		Threads: []Thread{{CacheRate: 1, MemRate: 2}, {CacheRate: 3, MemRate: 2}},
	}}}
	rs := w.ComputeRateStats()
	if rs.Cache.Mean != 2 || rs.Cache.Std != 1 {
		t.Errorf("cache stats = %+v", rs.Cache)
	}
	if rs.Mem.Mean != 2 || rs.Mem.Std != 0 {
		t.Errorf("mem stats = %+v", rs.Mem)
	}
}
