package sched

import (
	"context"
	"errors"
	"math"
	"testing"

	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/obs"
	"obm/internal/workload"
)

func testModel(t testing.TB) *model.LatencyModel {
	t.Helper()
	return model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
}

// appFrom lifts one application out of a paper configuration and gives
// it a unique name.
func appFrom(cfg string, idx int, name string) *workload.Application {
	w := workload.MustConfig(cfg)
	app := w.Apps[idx]
	app.Name = name
	return &app
}

func fourPhaseScenario() Scenario {
	return Scenario{
		Events: []Event{
			{Time: 0, Arrive: appFrom("C1", 3, "heavy1")},
			{Time: 0, Arrive: appFrom("C1", 0, "light1")},
			{Time: 100, Arrive: appFrom("C3", 3, "heavy2")},
			{Time: 200, Arrive: appFrom("C3", 0, "light2")},
			{Time: 300, Depart: "heavy1"},
			{Time: 400, Arrive: appFrom("C5", 2, "mid1")},
			{Time: 500, Depart: "light1"},
			{Time: 500, Arrive: appFrom("C8", 1, "mid2")},
		},
		End: 700,
	}
}

// streamRun is one test run's metrics and the private registry it
// recorded into.
type streamRun struct {
	StreamMetrics
	reg *obs.Registry
}

// attempts reads the run's remap attempts off its registry.
func (r streamRun) attempts() int { return counter(r.reg, "sched.stream.remap.attempts") }

// measured reports whether the run measured any span: every measured
// span observes the time-weighted dev-APL histogram.
func (r streamRun) measured() bool {
	return r.reg.Histogram("sched.stream.devapl", nil).Count() > 0
}

// counter reads one counter of reg.
func counter(reg *obs.Registry, name string) int { return int(reg.Counter(name).Value()) }

// runScenario runs sc on a StreamRunner that places arrivals first-fit
// and remaps with rm when the policy fires.
func runScenario(t testing.TB, sc Scenario, p Policy, rm Remapper) (streamRun, error) {
	t.Helper()
	reg := obs.NewRegistry()
	r, err := NewStreamRunner(testModel(t), StreamConfig{
		Placement: &FirstFitPlacement{},
		Policy:    p,
		Remapper:  rm,
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	met, err := r.Run(context.Background(), NewSliceSource(sc))
	return streamRun{met, reg}, err
}

// mustRun is runScenario with full sort-select-swap re-solves, failing
// the test on a run error.
func mustRun(t testing.TB, sc Scenario, p Policy) streamRun {
	t.Helper()
	met, err := runScenario(t, sc, p, FullRemap{Mapper: mapping.SortSelectSwap{}})
	if err != nil {
		t.Fatal(err)
	}
	return met
}

// TestScenarioValidate: the runner accepts a well-formed timeline and
// rejects every timeline that breaks the Scenario invariants.
func TestScenarioValidate(t *testing.T) {
	if _, err := runScenario(t, fourPhaseScenario(), Never{}, nil); err != nil {
		t.Fatal(err)
	}
	bad := map[string]Scenario{
		"empty":                     {},
		"earlier than previous":     {Events: []Event{{Time: 5, Arrive: appFrom("C1", 0, "a")}, {Time: 1, Depart: "a"}}, End: 10},
		"neither arrive nor depart": {Events: []Event{{Time: 0}}, End: 1},
		"both arrive and depart":    {Events: []Event{{Time: 0, Arrive: appFrom("C1", 0, "a"), Depart: "b"}}, End: 1},
		"unknown departure":         {Events: []Event{{Time: 0, Depart: "ghost"}}, End: 1},
		"duplicate arrival":         {Events: []Event{{Time: 0, Arrive: appFrom("C1", 0, "a")}, {Time: 1, Arrive: appFrom("C1", 1, "a")}}, End: 2},
		"end before last event":     {Events: []Event{{Time: 5, Arrive: appFrom("C1", 0, "a")}}, End: 1},
		"arrival without threads":   {Events: []Event{{Time: 0, Arrive: &workload.Application{Name: "empty"}}}, End: 1},
	}
	for name, sc := range bad {
		if _, err := runScenario(t, sc, Never{}, nil); err == nil {
			t.Errorf("%s: invalid timeline accepted", name)
		}
	}
}

// TestCoalesceSimultaneousEvents: events sharing a timestamp trigger at
// most one remap attempt, not one per event.
func TestCoalesceSimultaneousEvents(t *testing.T) {
	met := mustRun(t, fourPhaseScenario(), OnChange{})
	// fourPhaseScenario has 8 events at 6 distinct timestamps (two pairs
	// coincide), so on-change must fire exactly 6 times.
	if got := met.attempts(); got != 6 {
		t.Errorf("remap attempts = %d, want 6 (one per distinct timestamp)", got)
	}
}

// TestDegenerateTimelines: zero-length spans and empty timelines must
// yield typed errors or well-defined zeros — never NaN/Inf metrics.
func TestDegenerateTimelines(t *testing.T) {
	cases := []struct {
		name    string
		sc      Scenario
		wantErr error // nil: expect success with finite metrics
	}{
		{
			name:    "empty event list",
			sc:      Scenario{},
			wantErr: ErrNoEvents,
		},
		{
			name:    "empty with end",
			sc:      Scenario{End: 100},
			wantErr: ErrNoEvents,
		},
		{
			name: "end equals only event time",
			sc: Scenario{
				Events: []Event{{Time: 0, Arrive: appFrom("C1", 0, "a")}},
				End:    0,
			},
		},
		{
			name: "end equals last event time",
			sc: Scenario{
				Events: []Event{
					{Time: 0, Arrive: appFrom("C1", 0, "a")},
					{Time: 50, Arrive: appFrom("C1", 1, "b")},
				},
				End: 50,
			},
		},
		{
			name: "all events simultaneous, zero span",
			sc: Scenario{
				Events: []Event{
					{Time: 7, Arrive: appFrom("C1", 0, "a")},
					{Time: 7, Arrive: appFrom("C1", 1, "b")},
					{Time: 7, Depart: "a"},
				},
				End: 7,
			},
		},
		{
			name: "everything departs before end",
			sc: Scenario{
				Events: []Event{
					{Time: 0, Arrive: appFrom("C1", 0, "a")},
					{Time: 10, Depart: "a"},
				},
				End: 100,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			met, err := runScenario(t, tc.sc, OnChange{}, FullRemap{Mapper: mapping.SortSelectSwap{}})
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []float64{met.TimeWeightedMaxAPL, met.TimeWeightedDevAPL} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite time-weighted metric in %+v", met)
				}
			}
			if !met.measured() && (met.TimeWeightedMaxAPL != 0 || met.TimeWeightedDevAPL != 0) {
				t.Errorf("zero intervals but nonzero time-weighted metrics: %+v", met.StreamMetrics)
			}
		})
	}
}

func TestPolicies(t *testing.T) {
	if (Never{}).Remap(10, 9) {
		t.Error("Never remapped")
	}
	if !(OnChange{}).Remap(0, 0) {
		t.Error("OnChange declined")
	}
	e := Every{Interval: 100}
	if e.Remap(50, 9) || !e.Remap(150, 0) {
		t.Error("Every interval logic wrong")
	}
	w := WhenUnbalanced{Threshold: 0.5}
	if w.Remap(1000, 0.5) || !w.Remap(0, 0.9) {
		t.Error("WhenUnbalanced threshold logic wrong")
	}
	for _, p := range []Policy{Never{}, OnChange{}, Every{Interval: 5}} {
		if p.Name() == "" {
			t.Error("empty policy name")
		}
	}
}

func TestRunBasic(t *testing.T) {
	met := mustRun(t, fourPhaseScenario(), OnChange{})
	if !met.measured() {
		t.Fatal("no intervals measured")
	}
	if met.Remaps == 0 {
		t.Error("on-change policy should remap")
	}
	if met.TimeWeightedMaxAPL <= 0 {
		t.Error("no latency accumulated")
	}
}

// TestOnChangeBeatsNever: re-solving at every change yields better
// time-weighted balance than never remapping.
func TestOnChangeBeatsNever(t *testing.T) {
	sc := fourPhaseScenario()
	mNever := mustRun(t, sc, Never{})
	mChange := mustRun(t, sc, OnChange{})
	if mNever.attempts() != 0 || mNever.Migrations != 0 {
		t.Error("never policy migrated threads")
	}
	if !(mChange.TimeWeightedDevAPL < mNever.TimeWeightedDevAPL) {
		t.Errorf("on-change dev %.4f should beat never %.4f",
			mChange.TimeWeightedDevAPL, mNever.TimeWeightedDevAPL)
	}
	if !(mChange.TimeWeightedMaxAPL <= mNever.TimeWeightedMaxAPL+1e-9) {
		t.Errorf("on-change max %.3f should not exceed never %.3f",
			mChange.TimeWeightedMaxAPL, mNever.TimeWeightedMaxAPL)
	}
}

// TestPeriodicBetweenExtremes: a rate-limited policy lands between
// never and on-change on balance, with fewer migrations than on-change.
func TestPeriodicBetweenExtremes(t *testing.T) {
	sc := fourPhaseScenario()
	never := mustRun(t, sc, Never{})
	change := mustRun(t, sc, OnChange{})
	period := mustRun(t, sc, Every{Interval: 250})
	if !(period.Remaps > 0 && period.Remaps < change.Remaps+1) {
		t.Errorf("periodic remaps %d vs on-change %d", period.Remaps, change.Remaps)
	}
	if period.Migrations > change.Migrations {
		t.Errorf("periodic migrated more (%d) than on-change (%d)", period.Migrations, change.Migrations)
	}
	if !(period.TimeWeightedDevAPL <= never.TimeWeightedDevAPL+1e-9) {
		t.Errorf("periodic dev %.4f worse than never %.4f", period.TimeWeightedDevAPL, never.TimeWeightedDevAPL)
	}
}

func TestOverSubscription(t *testing.T) {
	sc := Scenario{
		Events: []Event{
			{Time: 0, Arrive: appFrom("C1", 0, "a")},
			{Time: 1, Arrive: appFrom("C1", 1, "b")},
			{Time: 2, Arrive: appFrom("C1", 2, "c")},
			{Time: 3, Arrive: appFrom("C1", 3, "d")},
			{Time: 4, Arrive: appFrom("C3", 0, "e")}, // 80 threads > 64 tiles
		},
		End: 10,
	}
	if _, err := runScenario(t, sc, OnChange{}, FullRemap{Mapper: mapping.SortSelectSwap{}}); err == nil {
		t.Error("over-subscription accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	r, err := NewStreamRunner(testModel(t), StreamConfig{
		Placement: &FirstFitPlacement{},
		Policy:    OnChange{},
		Remapper:  FullRemap{Mapper: mapping.SortSelectSwap{}},
		Registry:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Run(context.Background(), NewSliceSource(fourPhaseScenario()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(context.Background(), NewSliceSource(fourPhaseScenario()))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("scheduler not deterministic: %+v vs %+v", a, b)
	}
}

// TestWhenUnbalancedPolicy: the adaptive policy remaps less often than
// on-change while keeping dev-APL bounded near its threshold.
func TestWhenUnbalancedPolicy(t *testing.T) {
	sc := fourPhaseScenario()
	change := mustRun(t, sc, OnChange{})
	adaptive := mustRun(t, sc, WhenUnbalanced{Threshold: 0.5})
	if adaptive.Remaps == 0 {
		t.Fatal("adaptive policy never fired despite churn imbalance")
	}
	if adaptive.Remaps > change.Remaps {
		t.Errorf("adaptive (%d remaps) fired more than on-change (%d)", adaptive.Remaps, change.Remaps)
	}
	if adaptive.Migrations > change.Migrations {
		t.Errorf("adaptive migrated more (%d) than on-change (%d)", adaptive.Migrations, change.Migrations)
	}
	// A huge threshold degenerates to never.
	lazy := mustRun(t, sc, WhenUnbalanced{Threshold: 1e9})
	if got := lazy.attempts(); got != 0 {
		t.Errorf("threshold 1e9 still attempted %d remaps", got)
	}
	if (WhenUnbalanced{Threshold: 0.5}).Name() == "" {
		t.Error("empty name")
	}
}

// TestMigrationBudget: a budgeted remapper never exceeds its per-remap
// budget and still improves balance over never remapping.
func TestMigrationBudget(t *testing.T) {
	sc := fourPhaseScenario()
	met, err := runScenario(t, sc, OnChange{}, BudgetRemap{Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	if met.Remaps == 0 {
		t.Fatal("budgeted runner never remapped")
	}
	if met.Migrations > met.Remaps*8 {
		t.Errorf("%d migrations over %d remaps exceeds budget 8", met.Migrations, met.Remaps)
	}
	base := mustRun(t, sc, Never{})
	if !(met.TimeWeightedDevAPL < base.TimeWeightedDevAPL) {
		t.Errorf("budgeted dev %.4f not below never %.4f", met.TimeWeightedDevAPL, base.TimeWeightedDevAPL)
	}
	fm := mustRun(t, sc, OnChange{})
	if met.Migrations >= fm.Migrations {
		t.Errorf("budgeted migrations %d not below full remap %d", met.Migrations, fm.Migrations)
	}
}

func TestDebouncedPolicy(t *testing.T) {
	d := Debounced{Inner: OnChange{}, MinInterval: 100}
	if d.Remap(50, 0) {
		t.Error("fired inside the debounce window")
	}
	if !d.Remap(100, 0) {
		t.Error("did not fire once the gap cleared MinInterval")
	}
	m := Debounced{Inner: WhenUnbalanced{Threshold: 0.5}, MinInterval: 100}
	if !m.Remap(500, 0.9) {
		t.Error("unbalanced fire suppressed despite cleared gap")
	}
	if m.Remap(10, 0.9) {
		t.Error("unbalanced fire inside the debounce window")
	}
	if m.Remap(500, 0.1) {
		t.Error("fired below the inner threshold")
	}
	np := Debounced{Inner: Never{}, MinInterval: 1}
	if np.Remap(50, 9) {
		t.Error("Never fired through Debounced")
	}
	if got := m.Name(); got != "dev>0.50/min100" {
		t.Errorf("Name = %q", got)
	}
}
