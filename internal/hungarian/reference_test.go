package hungarian

import (
	"fmt"
	"math"
	"testing"

	"obm/internal/stats"
)

// solveReference is the textbook shortest-augmenting-path loop that
// Solver.Solve reorganizes: every step scans all columns, then lowers
// minv of each unused column and updates the potentials of each used
// one. Solve must return exactly what this returns, bit for bit.
func solveReference(cost [][]float64) (rowToCol []int, total float64, err error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, fmt.Errorf("%w: empty matrix", ErrInvalidCost)
	}
	m := len(cost[0])
	if m < n {
		return nil, 0, fmt.Errorf("%w: %d rows > %d cols", ErrInvalidCost, n, m)
	}
	for i, row := range cost {
		if len(row) != m {
			return nil, 0, fmt.Errorf("%w: ragged row %d", ErrInvalidCost, i)
		}
		for j, c := range row {
			if math.IsNaN(c) || math.IsInf(c, -1) {
				return nil, 0, fmt.Errorf("%w: cost[%d][%d] = %v", ErrInvalidCost, i, j, c)
			}
		}
	}

	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1)
	way := make([]int, m+1)
	minv := make([]float64, m+1)
	used := make([]bool, m+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = math.Inf(1)
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := -1
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			if j1 < 0 {
				return nil, 0, fmt.Errorf("%w: no augmenting path (all-Inf row?)", ErrInvalidCost)
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	rowToCol = make([]int, n)
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			rowToCol[p[j]-1] = j - 1
		}
	}
	for i := 0; i < n; i++ {
		total += cost[i][rowToCol[i]]
	}
	return rowToCol, total, nil
}

// referenceCase draws one n x m cost matrix of a given family.
type referenceCase struct {
	name string
	gen  func(r *stats.Rand, n, m int) [][]float64
}

func newMatrix(n, m int, f func(i, j int) float64) [][]float64 {
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, m)
		for j := range cost[i] {
			cost[i][j] = f(i, j)
		}
	}
	return cost
}

var referenceCases = []referenceCase{
	// Small integers: ties everywhere, so any change to the
	// strict-< tie-breaking or the column order shows.
	{"int0-4", func(r *stats.Rand, n, m int) [][]float64 {
		return newMatrix(n, m, func(int, int) float64 { return float64(r.Intn(5)) })
	}},
	{"gaussian", func(r *stats.Rand, n, m int) [][]float64 {
		return newMatrix(n, m, func(int, int) float64 { return 10 * r.NormFloat64() })
	}},
	// The SAM cost c_j*TC(k) + m_j*TM(k): rank 2, so many near-ties
	// that differ only in rounding.
	{"sam-rank2", func(r *stats.Rand, n, m int) [][]float64 {
		c, mm := make([]float64, n), make([]float64, n)
		for i := range c {
			c[i], mm[i] = r.Float64()*30, r.Float64()*3
		}
		tc, tm := make([]float64, m), make([]float64, m)
		for k := range tc {
			tc[k], tm[k] = 4+r.Float64()*10, 6+r.Float64()*20
		}
		return newMatrix(n, m, func(i, k int) float64 { return c[i]*tc[k] + mm[i]*tm[k] })
	}},
	{"some-inf", func(r *stats.Rand, n, m int) [][]float64 {
		return newMatrix(n, m, func(int, int) float64 {
			if r.Intn(6) == 0 {
				return math.Inf(1)
			}
			return r.Float64() * 100
		})
	}},
}

// TestSolveMatchesReference checks Solver.Solve against the textbook
// loop on random instances of every family, square and rectangular,
// with one Solver reused across growing and shrinking sizes: the
// assignment, the bits of the total and the error must all agree.
func TestSolveMatchesReference(t *testing.T) {
	rng := stats.NewRand(2024)
	var s Solver
	instances := 0
	for _, tc := range referenceCases {
		for trial := 0; trial < 2600; trial++ {
			n := 1 + rng.Intn(16)
			m := n
			switch trial % 4 {
			case 1:
				m = n + rng.Intn(8)
			case 2:
				// LowerBound's shape: one application's threads
				// against the whole 64-tile chip.
				n, m = 1+rng.Intn(16), 64
			case 3:
				n = 16 + rng.Intn(25)
				m = n
			}
			cost := tc.gen(rng, n, m)
			want, wantTotal, wantErr := solveReference(cost)
			got, gotTotal, gotErr := s.Solve(cost)
			instances++
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("%s trial %d (%dx%d): err = %v, reference err = %v", tc.name, trial, n, m, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if math.Float64bits(gotTotal) != math.Float64bits(wantTotal) {
				t.Fatalf("%s trial %d (%dx%d): total = %v, reference = %v", tc.name, trial, n, m, gotTotal, wantTotal)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d (%dx%d): rowToCol = %v, reference = %v", tc.name, trial, n, m, got, want)
				}
			}
		}
	}
	if instances < 10000 {
		t.Fatalf("only %d instances checked", instances)
	}
}
