// Package hungarian solves the linear assignment problem in O(n^3) time
// using the Hungarian method in its shortest-augmenting-path (Jonker–
// Volgenant) formulation with dual potentials.
//
// The paper's SAM subproblem (Section IV.A, Algorithm 1) assigns the
// threads of one application to a set of tiles so that the application's
// total packet latency is minimized; its cost matrix entry is
// cost[j][k] = c_j*TC(k) + m_j*TM(k). The Global baseline solves the same
// problem over the whole chip.
package hungarian

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidCost is returned when a cost matrix contains NaN or -Inf, or
// is ragged/empty.
var ErrInvalidCost = errors.New("hungarian: invalid cost matrix")

// Solve finds, for an n x m cost matrix with n <= m, an assignment of
// every row to a distinct column minimizing the total cost. It returns
// rowToCol (length n) and the minimal total cost.
func Solve(cost [][]float64) (rowToCol []int, total float64, err error) {
	var s Solver
	// The Solver is local, so its reused buffer escapes as a fresh slice.
	return s.Solve(cost)
}

// Solver solves a sequence of assignment problems while reusing its
// internal arrays across calls, for hot paths that solve many instances
// (e.g. sort-select-swap's repeated SAM solves). The zero value is ready
// to use. Not safe for concurrent use; give each goroutine its own.
type Solver struct {
	u, v, minv []float64
	p, way     []int
	used       []bool
	usedCols   []int
	rowToCol   []int
}

// Solve is identical to the package-level Solve — same algorithm, same
// float operations in the same order, bit-identical results — except the
// returned slice is owned by the Solver and overwritten by its next call.
func (s *Solver) Solve(cost [][]float64) (rowToCol []int, total float64, err error) {
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

	// Shortest augmenting path with potentials; 1-based internal arrays
	// with index 0 as the virtual root of each augmentation. u, v and p
	// must start zeroed (zero potentials, no column matched); minv and
	// used are initialized per row below, and way is only read on columns
	// the current row's search has already written.
	if cap(s.v) < m+1 {
		s.v = make([]float64, m+1)
		s.minv = make([]float64, m+1)
		s.p = make([]int, m+1)
		s.way = make([]int, m+1)
		s.used = make([]bool, m+1)
		s.usedCols = make([]int, 0, m+1)
	}
	if cap(s.u) < n+1 {
		s.u = make([]float64, n+1)
		s.rowToCol = make([]int, n)
	}
	u := s.u[:n+1]
	v := s.v[:m+1]
	p := s.p[:m+1]     // p[j]: row matched to column j (0 = none)
	way := s.way[:m+1] // way[j]: previous column on the alternating path
	minv := s.minv[:m+1]
	used := s.used[:m+1]
	for i := range u {
		u[i] = 0
	}
	for j := range v {
		v[j] = 0
		p[j] = 0
	}
	// Column-indexed views shifted by one, so the scan below indexes
	// them and the cost row with the same 0-based j.
	v1 := v[1:][:m]
	minv1 := minv[1:][:m]
	used1 := used[1:][:m]
	way1 := way[1:][:m]

	// Each step of a row's search differs from the textbook loop in
	// where, not how, it does its float work, so the results stay
	// bit-identical:
	//   - the textbook ends a step by lowering minv of every unused
	//     column by delta; here that delta is held as pending and
	//     subtracted just before the column's next compare. The one
	//     column that turns used is never read again, so skipping it
	//     is exact;
	//   - the potential updates u[p[j]] += delta, v[j] -= delta run over
	//     a list of the used columns instead of a scan of all columns.
	//     Their rows are distinct, so every element receives the same
	//     deltas in the same order.
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = math.Inf(1)
			used[j] = false
		}
		usedCols := s.usedCols[:0]
		pending := 0.0
		for {
			used[j0] = true
			usedCols = append(usedCols, j0)
			i0 := p[j0]
			row := cost[i0-1][:m]
			ui := u[i0]
			delta := math.Inf(1)
			j1 := -1
			for j, c := range row {
				if used1[j] {
					continue
				}
				mv := minv1[j] - pending
				if cur := c - ui - v1[j]; cur < mv {
					mv = cur
					way1[j] = j0
				}
				minv1[j] = mv
				if mv < delta {
					delta = mv
					j1 = j
				}
			}
			if j1 < 0 {
				// Unreachable for finite costs; guards +Inf-only rows.
				return nil, 0, fmt.Errorf("%w: no augmenting path (all-Inf row?)", ErrInvalidCost)
			}
			for _, j := range usedCols {
				u[p[j]] += delta
				v[j] -= delta
			}
			pending = delta
			j0 = j1 + 1
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

	rowToCol = s.rowToCol[:n]
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
