package core

import (
	"fmt"

	"obm/internal/hungarian"
	"obm/internal/mesh"
	"obm/internal/model"
)

// SAMSolver solves every thread-onto-tiles assignment of one Problem.
// Its instance is the Single Application Mapping problem of Section IV.A
// (Algorithm 1): given a flattened thread range [lo, hi) and candidate
// tiles, assign each thread a distinct tile so that the range's total
// packet latency is minimal (equivalently its APL, since the
// denominator is fixed). There may be more tiles than threads, so the
// Global baseline (Section II.D) is the instance of every thread onto
// every tile, and LowerBound's relaxations are instances of one
// application, or of every thread, onto every tile. Each solve hands
// the range's rates to the embedded Assigner.
type SAMSolver struct {
	Assigner
	p     *Problem
	tiles []mesh.Tile
}

// NewSAMSolver returns a scratch-reusing SAM solver for p.
func (p *Problem) NewSAMSolver() *SAMSolver {
	return &SAMSolver{p: p}
}

// Assigner runs Algorithm 1 for threads given by their rates, so it
// also places applications that belong to no Problem (the streaming
// scheduler's arrivals). It reuses the cost matrix and Hungarian
// scratch across solves, so the per-call allocations amortize to zero,
// which matters for mappers that SAM-polish on a hot path
// (sort-select-swap runs two solves per application per pass); reusing
// the buffers changes no float operation or its order. The zero value
// is ready to use. Not safe for concurrent use; give each goroutine
// its own.
type Assigner struct {
	hs    hungarian.Solver
	costM [][]float64
	flat  []float64
}

// Assign returns the minimum-total-latency assignment of threads with
// cache rates cache and memory rates mem onto distinct tiles, at least
// len(cache) of them, and that total. Thread x gets tiles[rowToCol[x]];
// rowToCol is owned by the Assigner and overwritten by its next call.
func (a *Assigner) Assign(lm *model.LatencyModel, cache, mem []float64, tiles []mesh.Tile) (rowToCol []int, total float64, err error) {
	na, nt := len(cache), len(tiles)
	if len(mem) != na {
		return nil, 0, fmt.Errorf("core: SAM got %d cache rates and %d memory rates", na, len(mem))
	}
	if nt < na {
		return nil, 0, fmt.Errorf("core: SAM got %d tiles for %d threads", nt, na)
	}
	// Step 1 (Algorithm 1): build the cost matrix cost[j][k] (eq. 13).
	if cap(a.flat) < na*nt {
		a.flat = make([]float64, na*nt)
	}
	if cap(a.costM) < na {
		a.costM = make([][]float64, na)
	}
	flat := a.flat[:na*nt]
	costM := a.costM[:na]
	for x := range costM {
		row := flat[x*nt : (x+1)*nt]
		for y, t := range tiles {
			row[y] = lm.Cost(cache[x], mem[x], t)
		}
		costM[x] = row
	}
	// Step 2: Hungarian assignment.
	rowToCol, total, err = a.hs.Solve(costM)
	if err != nil {
		return nil, 0, fmt.Errorf("core: SAM: %w", err)
	}
	return rowToCol, total, nil
}

// solve runs Algorithm 1 for thread range [lo, hi) over tiles and
// returns the Hungarian row-to-column assignment (owned by the solver,
// overwritten by the next call) and the total packet latency.
func (s *SAMSolver) solve(lo, hi int, tiles []mesh.Tile) ([]int, float64, error) {
	p := s.p
	if hi <= lo || lo < 0 || hi > p.N() {
		return nil, 0, fmt.Errorf("core: SAM thread range [%d,%d) invalid", lo, hi)
	}
	return s.Assign(p.lm, p.cache[lo:hi], p.mem[lo:hi], tiles)
}

// SolveSAM assigns the threads [lo, hi) to distinct tiles, at least
// hi-lo of them, minimizing their total packet latency. assign[x] is
// the tile given to thread lo+x, freshly allocated so the caller may
// keep it across later solves. cost is the total packet latency (the
// APL numerator when the range is one application), i.e. the sum of
// c_j*TC + m_j*TM over the range; divide by Problem.AppWeight to obtain
// an application's APL.
func (s *SAMSolver) SolveSAM(lo, hi int, tiles []mesh.Tile) (assign []mesh.Tile, cost float64, err error) {
	rowToCol, total, err := s.solve(lo, hi, tiles)
	if err != nil {
		return nil, 0, err
	}
	assign = make([]mesh.Tile, len(rowToCol))
	for x, y := range rowToCol {
		assign[x] = tiles[y]
	}
	return assign, total, nil
}

// SolveInto solves SAM for application appIdx over tiles, writes the
// assignment into m (which must have length N), and returns the
// application's resulting APL.
func (s *SAMSolver) SolveInto(m Mapping, appIdx int, tiles []mesh.Tile) (float64, error) {
	p := s.p
	lo, hi := p.AppThreads(appIdx)
	rowToCol, cost, err := s.solve(lo, hi, tiles)
	if err != nil {
		return 0, err
	}
	for x, y := range rowToCol {
		m[lo+x] = tiles[y]
	}
	if w := p.AppWeight(appIdx); w > 0 {
		return cost / w, nil
	}
	return 0, nil
}

// ReoptimizeApp re-runs SAM for application appIdx over the tiles it
// currently occupies in m, improving (never worsening) its APL in
// place. This is the final polish step of the sort-select-swap
// algorithm and is also used after sliding-window swaps.
func (s *SAMSolver) ReoptimizeApp(m Mapping, appIdx int) error {
	lo, hi := s.p.AppThreads(appIdx)
	if cap(s.tiles) < hi-lo {
		s.tiles = make([]mesh.Tile, hi-lo)
	}
	tiles := s.tiles[:hi-lo]
	for x := range tiles {
		tiles[x] = m[lo+x]
	}
	_, err := s.SolveInto(m, appIdx, tiles)
	return err
}
