package mapping

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"obm/internal/core"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/stats"
	"obm/internal/workload"
)

// allObjectives is every objective the delta paths must agree with,
// including a composite (nil exercises the default resolution).
func allObjectives() []core.Objective {
	return append(append([]core.Objective{nil}, core.Objectives()...),
		core.Weighted{Max: 1, Dev: 2, Global: 0.5, Ratio: 3})
}

// fiveAppProblem builds a 3x3-mesh instance with five applications, the
// smallest shape where a 5-thread window can span five distinct
// applications.
func fiveAppProblem(t testing.TB) *core.Problem {
	t.Helper()
	lm := model.MustNew(mesh.MustNew(3, 3), model.DefaultParams())
	rng := stats.NewRand(5)
	w := &workload.Workload{Name: "five"}
	for _, size := range []int{2, 2, 2, 2, 1} {
		app := workload.Application{Name: "a"}
		for j := 0; j < size; j++ {
			c := 1 + rng.Float64()*10
			app.Threads = append(app.Threads, workload.Thread{CacheRate: c, MemRate: 0.4 * c})
		}
		w.Apps = append(w.Apps, app)
	}
	return core.MustNewProblem(lm, w)
}

// windowMove sends thread threads[x] to the tile of threads[perm[x]],
// priced through the window kernel the swap phase and budgeted
// refinement share: a fillWindowCost table over the threads' current
// tiles, windowDeltas for the probe, applyWindow for the move.
type windowMove struct {
	tr      *tracker
	threads []int
	apps    []int
	perm    []int
	tiles   []mesh.Tile
	cost    []float64
}

func newWindowMove(tr *tracker, threads, perm []int) *windowMove {
	w := len(threads)
	mv := &windowMove{tr: tr, threads: threads, perm: perm,
		apps: make([]int, w), tiles: make([]mesh.Tile, w), cost: make([]float64, w*w)}
	for x, j := range threads {
		mv.apps[x] = tr.p.AppOfThread(j)
		mv.tiles[x] = tr.m[j]
	}
	fillWindowCost(tr.p, threads, mv.tiles, mv.cost)
	return mv
}

// probe returns the objective value the move would reach, through
// tracker.probe.
func (mv *windowMove) probe() float64 {
	d := make([]float64, len(mv.perm))
	windowDeltas(d, mv.cost, mv.perm)
	return mv.tr.probe(mv.apps, d)
}

// apply makes the move on the tracker's mapping and numerators.
func (mv *windowMove) apply() {
	inv := mv.tr.m.InverseOn(len(mv.tr.m))
	applyWindow(mv.tr, inv, mv.perm, mv.threads, mv.apps, mv.tiles, mv.cost)
}

// TestAssignValueFiveApps: a window of one thread from each of five
// applications patches five numerators, and its prediction must match
// the brute-force evaluation of the permuted mapping for every
// objective.
func TestAssignValueFiveApps(t *testing.T) {
	p := fiveAppProblem(t)
	rng := stats.NewRand(77)
	for _, obj := range allObjectives() {
		name := "default"
		if obj != nil {
			name = obj.Name()
		}
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 30; trial++ {
				m := core.RandomMapping(p.N(), rng)
				tr := newTracker(p, m.Clone(), obj)
				// One thread per application: 5 distinct apps in one window.
				js := []int{0, 2, 4, 6, 8}
				ts := make([]mesh.Tile, len(js))
				order := rng.Perm(len(js))
				for x := range js {
					ts[x] = tr.m[js[order[x]]]
				}
				want := func() float64 {
					m2 := tr.m.Clone()
					for x, j := range js {
						m2[j] = ts[x]
					}
					return p.ObjectiveValue(m2, obj)
				}()
				mv := newWindowMove(tr, js, order)
				if got := mv.probe(); math.Abs(got-want) > 1e-9 {
					t.Fatalf("trial %d: window probe %v != brute force %v", trial, got, want)
				}
				// And applying the move must land on the predicted value.
				mv.apply()
				if got := tr.value(); math.Abs(got-want) > 1e-9 {
					t.Fatalf("trial %d: value after apply %v != %v", trial, got, want)
				}
			}
		})
	}
}

// TestSSSWindow5FiveApps drives five-application windows end to end: a
// 5-tile swap window over a 5-application instance produces a valid
// mapping.
func TestSSSWindow5FiveApps(t *testing.T) {
	p := fiveAppProblem(t)
	for _, obj := range []core.Objective{nil, core.DevAPL{}} {
		m, err := (SortSelectSwap{WindowSize: 5, Objective: obj}).Map(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(p.N()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPropertyObjectiveDeltaConsistency is the cross-check `make check`
// rides on: on random problems and mappings, every objective's
// incremental swap/window probes must equal the from-scratch value of
// the mapping with the move applied.
func TestPropertyObjectiveDeltaConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		p := randomProblem(seed)
		rng := stats.NewRand(seed ^ 0xdead)
		for _, obj := range allObjectives() {
			m := core.RandomMapping(p.N(), rng)
			tr := newTracker(p, m, obj)
			for step := 0; step < 20; step++ {
				j1, j2 := rng.Intn(p.N()), rng.Intn(p.N())
				if j1 == j2 {
					continue
				}
				predicted := tr.swapValue(j1, j2)
				m2 := tr.m.Clone()
				m2[j1], m2[j2] = m2[j2], m2[j1]
				if want := p.ObjectiveValue(m2, obj); math.Abs(predicted-want) > 1e-9 {
					t.Logf("seed %d obj %v: swapValue %v != %v", seed, obj, predicted, want)
					return false
				}
				tr.swap(j1, j2)
			}
			// Window re-assignment probes (up to 4 threads).
			for step := 0; step < 10; step++ {
				k := 2 + rng.Intn(3)
				if k > p.N() {
					continue
				}
				js := rng.Perm(p.N())[:k]
				ts := make([]mesh.Tile, k)
				order := rng.Perm(k)
				for x := range js {
					ts[x] = tr.m[js[order[x]]]
				}
				mv := newWindowMove(tr, js, order)
				predicted := mv.probe()
				m2 := tr.m.Clone()
				for x, j := range js {
					m2[j] = ts[x]
				}
				if want := p.ObjectiveValue(m2, obj); math.Abs(predicted-want) > 1e-9 {
					t.Logf("seed %d obj %v: window probe %v != %v", seed, obj, predicted, want)
					return false
				}
				mv.apply()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestTrackerProbeMatchesSubstitutedValue: a swap or window probe
// returns exactly Value on a copy of the numerators with the move's
// deltas added, also when two moved threads share an application, and
// leaves the tracker's numerators bit-identical.
func TestTrackerProbeMatchesSubstitutedValue(t *testing.T) {
	p := fiveAppProblem(t)
	rng := stats.NewRand(23)
	for _, obj := range append(allObjectives(), core.Weighted{Max: 1, Dev: 2}) {
		o := core.ObjectiveOrDefault(obj)
		tr := newTracker(p, core.RandomMapping(p.N(), rng), obj)
		// Substituted scores js moving to ts on a copy of the numerators.
		substituted := func(js []int, ts []mesh.Tile) float64 {
			sub := append([]float64(nil), tr.num...)
			for x, j := range js {
				sub[p.AppOfThread(j)] += p.ThreadCost(j, ts[x]) - p.ThreadCost(j, tr.m[j])
			}
			return o.Value(p, sub)
		}
		unchanged := func(what string, before []float64) {
			t.Helper()
			for a := range before {
				if math.Float64bits(tr.num[a]) != math.Float64bits(before[a]) {
					t.Fatalf("%s %s: num[%d] %v after probe, %v before", o.Name(), what, a, tr.num[a], before[a])
				}
			}
		}
		// Threads 0 and 1 share application 0; 0 and 2 do not.
		for _, pair := range [][2]int{{0, 1}, {0, 2}, {8, 3}} {
			j1, j2 := pair[0], pair[1]
			before := append([]float64(nil), tr.num...)
			want := substituted([]int{j1, j2}, []mesh.Tile{tr.m[j2], tr.m[j1]})
			if got := tr.swapValue(j1, j2); got != want {
				t.Errorf("%s swap %d,%d: probe %v, substituted Value %v", o.Name(), j1, j2, got, want)
			}
			unchanged("swap", before)
		}
		for trial := 0; trial < 20; trial++ {
			// Up to maxWindow threads, always including 0 and 1 (one app).
			k := 2 + rng.Intn(maxWindow-1)
			js := append([]int{0, 1}, rng.Perm(p.N() - 2)[:k-2]...)
			for x := 2; x < k; x++ {
				js[x] += 2
			}
			ts := make([]mesh.Tile, k)
			perm := rng.Perm(k)
			for x, y := range perm {
				ts[x] = tr.m[js[y]]
			}
			before := append([]float64(nil), tr.num...)
			want := substituted(js, ts)
			if got := newWindowMove(tr, js, perm).probe(); got != want {
				t.Errorf("%s window %v: probe %v, substituted Value %v", o.Name(), js, got, want)
			}
			unchanged("window", before)
		}
	}
}
