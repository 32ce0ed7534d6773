package hungarian

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"obm/internal/stats"
)

func TestSolveTrivial(t *testing.T) {
	assign, total, err := Solve([][]float64{{7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != 1 || assign[0] != 0 || total != 7 {
		t.Errorf("assign=%v total=%v", assign, total)
	}
}

func TestSolveKnown(t *testing.T) {
	// Classic 3x3 example: optimal total is 5 (0->1:1, 1->0:2, 2->2:2).
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	assign, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 {
		t.Errorf("total = %v, want 5", total)
	}
	used := map[int]bool{}
	for _, c := range assign {
		if used[c] {
			t.Fatal("column used twice")
		}
		used[c] = true
	}
}

func TestSolveRectangular(t *testing.T) {
	// 2 rows, 4 cols: pick the cheapest distinct columns.
	cost := [][]float64{
		{10, 1, 10, 10},
		{10, 1, 10, 2},
	}
	assign, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Errorf("total = %v, want 3 (cols 1 and 3)", total)
	}
	if assign[0] != 1 || assign[1] != 3 {
		t.Errorf("assign = %v, want [1 3]", assign)
	}
}

func TestSolveErrors(t *testing.T) {
	cases := [][][]float64{
		{},                        // empty
		{{1, 2}, {1}},             // ragged
		{{1}, {2}},                // more rows than cols
		{{math.NaN()}},            // NaN
		{{math.Inf(-1)}},          // -Inf
		{{1, math.NaN()}, {1, 2}}, // NaN off-diagonal
	}
	for i, c := range cases {
		if _, _, err := Solve(c); !errors.Is(err, ErrInvalidCost) {
			t.Errorf("case %d: err = %v, want ErrInvalidCost", i, err)
		}
	}
}

func TestSolveNegativeCosts(t *testing.T) {
	cost := [][]float64{
		{-5, 0},
		{0, -5},
	}
	_, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != -10 {
		t.Errorf("total = %v, want -10", total)
	}
}

// bruteForce finds the optimal assignment by enumerating permutations.
func bruteForce(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			var s float64
			for i, j := range perm {
				s += cost[i][j]
			}
			if s < best {
				best = s
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

func TestSolveMatchesBruteForceRandom(t *testing.T) {
	rng := stats.NewRand(99)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(7)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = math.Floor(rng.Float64()*100) / 4
			}
		}
		_, total, err := Solve(cost)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(cost)
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d (n=%d): Solve = %v, brute force = %v", trial, n, total, want)
		}
	}
}

// Property: the returned assignment is always a valid injection and its
// cost equals the reported total.
func TestSolveAssignmentValid(t *testing.T) {
	rng := stats.NewRand(7)
	f := func(seed uint64) bool {
		r := stats.NewRand(seed ^ rng.Uint64())
		n := 1 + r.Intn(10)
		m := n + r.Intn(4)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = r.Float64() * 50
			}
		}
		assign, total, err := Solve(cost)
		if err != nil {
			return false
		}
		used := make(map[int]bool)
		var sum float64
		for i, c := range assign {
			if c < 0 || c >= m || used[c] {
				return false
			}
			used[c] = true
			sum += cost[i][c]
		}
		return math.Abs(sum-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
