package mapping

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"obm/internal/core"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/stats"
	"obm/internal/workload"
)

// referenceSlideWindows is the swap pass without the window cost table
// or the flat-row skip: every non-identity permutation of every window
// is scored, each probe prices its threads with ThreadCost, and each
// probe scores a fully substituted copy of the numerators with Value.
// It updates m and num in place exactly as the pass applies a move.
func referenceSlideWindows(s SortSelectSwap, p *core.Problem, m core.Mapping, num []float64, sorted []mesh.Tile, window int) {
	n := p.N()
	obj := core.ObjectiveOrDefault(s.Objective)
	inv := m.InverseOn(n)
	perms := permutations(window)
	trial := make([]float64, len(num))
	tiles := make([]mesh.Tile, window)
	threads := make([]int, window)
	for step := 1; step <= s.maxStep(n, window); step++ {
		for i := 0; i+(window-1)*step < n; i++ {
			for x := range tiles {
				tiles[x] = sorted[i+x*step]
				threads[x] = inv[tiles[x]]
			}
			bestObj := obj.Value(p, num)
			bestPerm := -1
			for pi, perm := range perms {
				identity := true
				copy(trial, num)
				for x, y := range perm {
					identity = identity && x == y
					j := threads[x]
					trial[p.AppOfThread(j)] += p.ThreadCost(j, tiles[y]) - p.ThreadCost(j, m[j])
				}
				if identity {
					continue
				}
				if v := obj.Value(p, trial); v < bestObj {
					bestObj, bestPerm = v, pi
				}
			}
			if bestPerm < 0 {
				continue
			}
			for x, y := range perms[bestPerm] {
				j := threads[x]
				num[p.AppOfThread(j)] += p.ThreadCost(j, tiles[y]) - p.ThreadCost(j, m[j])
				m[j] = tiles[y]
				inv[tiles[y]] = j
			}
		}
	}
}

// paddedProblem builds a 64-tile instance the way the streaming
// scheduler does: three live applications with random rates, padded
// with zero-rate idle threads to padPct percent of the tiles.
func paddedProblem(t testing.TB, padPct int, seed uint64) *core.Problem {
	t.Helper()
	lm := model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
	rng := stats.NewRand(seed)
	live := 64 - 64*padPct/100
	w := &workload.Workload{Name: "padded"}
	for a := 0; a < 3; a++ {
		app := workload.Application{Name: fmt.Sprintf("a%d", a)}
		for x := a * live / 3; x < (a+1)*live/3; x++ {
			c := 1 + rng.Float64()*10
			app.Threads = append(app.Threads, workload.Thread{CacheRate: c, MemRate: rng.Float64() * 0.4 * c})
		}
		w.Apps = append(w.Apps, app)
	}
	if err := w.PadTo(lm.NumTiles()); err != nil {
		t.Fatal(err)
	}
	return core.MustNewProblem(lm, w)
}

// TestSlideWindowsMatchesReference: the table-driven swap pass makes
// the same moves as referenceSlideWindows and ends on bit-identical
// numerators and objective value, pass after pass, on the paper's
// configurations, padded instances and the capacity chip, for every
// legal window and three step caps. Each (instance, window, step cap)
// runs the default objective and one other, rotating so that every
// objective meets every (window, step cap) on some instance; the full
// cross product would cost the race-detector run minutes.
func TestSlideWindowsMatchesReference(t *testing.T) {
	type named struct {
		name string
		p    *core.Problem
	}
	var probs []named
	for _, cfg := range workload.ConfigNames() {
		probs = append(probs, named{cfg, paperProblem(t, cfg)})
	}
	for _, pct := range []int{20, 40, 60} {
		probs = append(probs, named{fmt.Sprintf("pad%d", pct), paddedProblem(t, pct, uint64(pct))})
	}
	probs = append(probs, named{"cap2", capacity2Problem(t)})
	others := append(allObjectives()[1:], core.Weighted{Max: 1, Dev: 2})
	if len(probs) < len(others) {
		t.Fatalf("%d instances cannot rotate through %d objectives", len(probs), len(others))
	}
	ctx := context.Background()
	for pi, pr := range probs {
		p := pr.p
		sorted := p.Model().TilesByTC()
		start, err := (SortSelectSwap{DisableSwap: true, DisableFinalSAM: true}).Map(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		combo := 0
		for w := 2; w <= maxWindow; w++ {
			for _, maxStep := range []int{0, 1, 4} {
				combo++
				for _, obj := range []core.Objective{nil, others[(pi+combo)%len(others)]} {
					s := SortSelectSwap{WindowSize: w, MaxStep: maxStep, Objective: obj}
					got, want := start.Clone(), start.Clone()
					wantNum := make([]float64, p.NumApps())
					for j, tile := range want {
						wantNum[p.AppOfThread(j)] += p.ThreadCost(j, tile)
					}
					sam := p.NewSAMSolver()
					var sw swapScratch
					for pass := 0; pass < 2; pass++ {
						tr := newTracker(p, got, obj)
						if _, err := s.slideWindows(ctx, tr, sorted, w, &sw); err != nil {
							t.Fatal(err)
						}
						referenceSlideWindows(s, p, want, wantNum, sorted, w)
						where := fmt.Sprintf("%s w=%d maxstep=%d %s pass %d", pr.name, w, maxStep, s.Name(), pass)
						for j := range got {
							if got[j] != want[j] {
								t.Fatalf("%s: thread %d on tile %d, reference %d", where, j, got[j], want[j])
							}
						}
						for a := range wantNum {
							if math.Float64bits(tr.num[a]) != math.Float64bits(wantNum[a]) {
								t.Fatalf("%s: app %d numerator %v, reference %v", where, a, tr.num[a], wantNum[a])
							}
						}
						if v, ref := tr.value(), core.ObjectiveOrDefault(obj).Value(p, wantNum); v != ref {
							t.Fatalf("%s: value %v, reference %v", where, v, ref)
						}
						// The SAM polish between passes is deterministic, so
						// equal inputs stay equal.
						for i := 0; i < p.NumApps(); i++ {
							if err := sam.ReoptimizeApp(got, i); err != nil {
								t.Fatal(err)
							}
							if err := sam.ReoptimizeApp(want, i); err != nil {
								t.Fatal(err)
							}
						}
						wantNum = make([]float64, p.NumApps())
						for j, tile := range want {
							wantNum[p.AppOfThread(j)] += p.ThreadCost(j, tile)
						}
					}
				}
			}
		}
	}
}

// TestCanonPerms pins the skip table: for every window size and flat-row
// mask, the listed permutations number w!/f! - 1 (f flat rows), ascend,
// and every unlisted permutation agrees on all non-flat rows with an
// earlier listed one or with the identity.
func TestCanonPerms(t *testing.T) {
	factorial := func(k int) int {
		f := 1
		for i := 2; i <= k; i++ {
			f *= i
		}
		return f
	}
	for w := 2; w <= maxWindow; w++ {
		perms := permutations(w)
		table := canonPerms(w)
		if len(table) != 1<<w {
			t.Fatalf("w=%d: %d masks, want %d", w, len(table), 1<<w)
		}
		for flat, list := range table {
			f := bits.OnesCount(uint(flat))
			if want := factorial(w)/factorial(f) - 1; len(list) != want {
				t.Errorf("w=%d flat=%b: %d permutations, want %d", w, flat, len(list), want)
			}
			agree := func(a, b []int) bool {
				for x := range a {
					if flat&(1<<x) == 0 && a[x] != b[x] {
						return false
					}
				}
				return true
			}
			listed := map[int]bool{}
			for k, pi := range list {
				if k > 0 && pi <= list[k-1] {
					t.Errorf("w=%d flat=%b: indices not strictly ascending: %v", w, flat, list)
				}
				listed[pi] = true
			}
			for pi, perm := range perms {
				if listed[pi] {
					continue
				}
				covered := agree(perm, perms[0])
				for _, qi := range list {
					if qi < pi && agree(perm, perms[qi]) {
						covered = true
					}
				}
				if !covered {
					t.Errorf("w=%d flat=%b: permutation %d %v is neither listed nor covered", w, flat, pi, perm)
				}
			}
		}
	}
}
