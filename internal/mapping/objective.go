package mapping

import "obm/internal/core"

// tracker maintains the per-application APL numerators of a mapping so
// that swap-style moves can be evaluated and applied in O(A) instead of
// O(N). It carries the core.Objective being optimized (nil means the
// paper's max-APL): the numerators are objective-agnostic state. Every
// probe patches and restores: it saves the numerators of the
// applications the move touches, adds the move's per-thread deltas to
// num in thread order, scores num with the objective's Value, and
// writes the saved values back, so num is bit-identical afterwards. The
// annealer, the sliding-window phase of sort-select-swap, budgeted
// refinement and NSGA-II's polish all use it.
type tracker struct {
	p   *core.Problem
	obj core.Objective
	m   core.Mapping
	num []float64 // per-application total packet latency (APL numerator)

	// saved holds the numerators a probe overwrites, one per patched
	// thread (a window holds at most maxWindow threads).
	saved [maxWindow]float64
}

// newTracker returns a tracker of m's numerators under obj (nil is the
// paper's max-APL). The tracker shares m: moves it applies rewrite m.
func newTracker(p *core.Problem, m core.Mapping, obj core.Objective) *tracker {
	t := &tracker{p: p, obj: core.ObjectiveOrDefault(obj), m: m, num: make([]float64, p.NumApps())}
	for j, tile := range m {
		t.num[p.AppOfThread(j)] += p.ThreadCost(j, tile)
	}
	return t
}

// value returns the current objective cost.
func (t *tracker) value() float64 {
	return t.obj.Value(t.p, t.num)
}

// probe returns the objective cost if d[x] were added to num[apps[x]]
// for each x in order, without changing num. apps and d are parallel
// slices of at most maxWindow entries and may list an application more
// than once; the saved values are restored in reverse, so a repeated
// application gets its original numerator back.
func (t *tracker) probe(apps []int, d []float64) float64 {
	for x, a := range apps {
		t.saved[x] = t.num[a]
		t.num[a] += d[x]
	}
	v := t.obj.Value(t.p, t.num)
	for x := len(apps) - 1; x >= 0; x-- {
		t.num[apps[x]] = t.saved[x]
	}
	return v
}

// swapValue returns the objective cost after hypothetically swapping
// the tiles of threads j1 and j2, without mutating state.
func (t *tracker) swapValue(j1, j2 int) float64 {
	t1, t2 := t.m[j1], t.m[j2]
	apps := [2]int{t.p.AppOfThread(j1), t.p.AppOfThread(j2)}
	d := [2]float64{
		t.p.ThreadCost(j1, t2) - t.p.ThreadCost(j1, t1),
		t.p.ThreadCost(j2, t1) - t.p.ThreadCost(j2, t2),
	}
	return t.probe(apps[:], d[:])
}

// swap applies the tile swap between threads j1 and j2.
func (t *tracker) swap(j1, j2 int) {
	a1, a2 := t.p.AppOfThread(j1), t.p.AppOfThread(j2)
	t1, t2 := t.m[j1], t.m[j2]
	t.num[a1] += t.p.ThreadCost(j1, t2) - t.p.ThreadCost(j1, t1)
	t.num[a2] += t.p.ThreadCost(j2, t1) - t.p.ThreadCost(j2, t2)
	t.m[j1], t.m[j2] = t2, t1
}

// objName returns the mapper-name suffix for a non-default objective
// ("" for the paper's max-APL, so published names are untouched).
func objName(o core.Objective) string {
	if core.IsDefaultObjective(o) {
		return ""
	}
	return "{" + o.Name() + "}"
}

// objFingerprint returns the fingerprint fragment for a mapper's
// objective: "" for the default max-APL (so every pre-objective
// fingerprint — and therefore every cached artifact key and golden
// test — is byte-identical), ",obj=<fp>" otherwise.
func objFingerprint(o core.Objective) string {
	if core.IsDefaultObjective(o) {
		return ""
	}
	return ",obj=" + o.Fingerprint()
}
