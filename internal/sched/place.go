package sched

import (
	"fmt"
	"sort"

	"obm/internal/hungarian"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/workload"
)

// FreeSet tracks which tiles are unoccupied, O(1) per take/release.
type FreeSet struct {
	free  []bool
	count int
}

// NewFreeSet returns a set with all n tiles free.
func NewFreeSet(n int) *FreeSet {
	f := &FreeSet{free: make([]bool, n), count: n}
	for i := range f.free {
		f.free[i] = true
	}
	return f
}

// Free reports whether tile t is unoccupied.
func (f *FreeSet) Free(t mesh.Tile) bool { return f.free[t] }

// Count returns the number of free tiles.
func (f *FreeSet) Count() int { return f.count }

// Take marks tile t occupied.
func (f *FreeSet) Take(t mesh.Tile) {
	if f.free[t] {
		f.free[t] = false
		f.count--
	}
}

// Release marks tile t free.
func (f *FreeSet) Release(t mesh.Tile) {
	if !f.free[t] {
		f.free[t] = true
		f.count++
	}
}

// Placement chooses tiles for an arriving application's threads without
// disturbing any already-placed thread — the fast path a streaming
// scheduler takes on every arrival, between (much rarer) full remaps.
// Implementations may keep internal scratch and are not safe for
// concurrent use.
type Placement interface {
	// Name labels the placement in results.
	Name() string
	// Place returns one tile per thread of app, all currently free in
	// fs. It must not modify fs — the caller takes the returned tiles.
	Place(lm *model.LatencyModel, app *workload.Application, fs *FreeSet) ([]mesh.Tile, error)
}

// SpiralPlacement is the nearest-neighbor run-time heuristic from the
// spiral task-mapping literature, adapted to the OBM cost model: seed
// at the free tile with the lowest shared-cache latency TC, walk
// Manhattan rings outward collecting free tiles until the application
// fits, then hand the heaviest threads the lowest-TC tiles collected.
// O(N + need·log need) per arrival with no assignment solve — the
// fast-path baseline against Hungarian placement.
type SpiralPlacement struct {
	ring []mesh.Tile // scratch: tiles of the ring under scan
	got  []mesh.Tile // scratch: collected tiles
	ord  []int       // scratch: thread order
}

// Name implements Placement.
func (s *SpiralPlacement) Name() string { return "spiral" }

// Place implements Placement.
func (s *SpiralPlacement) Place(lm *model.LatencyModel, app *workload.Application, fs *FreeSet) ([]mesh.Tile, error) {
	need := len(app.Threads)
	if need == 0 {
		return nil, fmt.Errorf("sched: placing empty application %q", app.Name)
	}
	if need > fs.Count() {
		return nil, fmt.Errorf("sched: %q needs %d tiles, %d free", app.Name, need, fs.Count())
	}
	msh := lm.Mesh()
	n := msh.NumTiles()

	// Seed: the free tile with minimum TC (lowest index on ties).
	seed := mesh.Tile(-1)
	for t := 0; t < n; t++ {
		tt := mesh.Tile(t)
		if !fs.Free(tt) {
			continue
		}
		if seed < 0 || lm.TC(tt) < lm.TC(seed) {
			seed = tt
		}
	}

	got := s.got[:0]
	got = append(got, seed)
	sc := msh.Coord(seed)
	maxRadius := msh.Rows() + msh.Cols() // covers the whole mesh from any seed
	for r := 1; len(got) < need && r <= maxRadius; r++ {
		ring := s.ring[:0]
		addIfFree := func(row, col int) {
			if row < 0 || row >= msh.Rows() || col < 0 || col >= msh.Cols() {
				return
			}
			if t := msh.TileAt(row, col); fs.Free(t) {
				ring = append(ring, t)
			}
		}
		for dr := -r; dr <= r; dr++ {
			rem := r - abs(dr)
			if rem == 0 {
				addIfFree(sc.Row+dr, sc.Col) // single tile at the vertical extremes
				continue
			}
			addIfFree(sc.Row+dr, sc.Col-rem)
			addIfFree(sc.Row+dr, sc.Col+rem)
		}
		// Within a ring all tiles are equally near; prefer the
		// lower-latency ones when only part of the ring is needed.
		sort.Slice(ring, func(a, b int) bool {
			ta, tb := lm.TC(ring[a]), lm.TC(ring[b])
			if ta != tb {
				return ta < tb
			}
			return ring[a] < ring[b]
		})
		s.ring = ring
		got = append(got, ring...)
	}
	got = got[:need]
	// Heaviest threads onto the lowest-TC tiles of the collected set.
	sort.Slice(got, func(a, b int) bool {
		ta, tb := lm.TC(got[a]), lm.TC(got[b])
		if ta != tb {
			return ta < tb
		}
		return got[a] < got[b]
	})
	ord := s.ord[:0]
	for i := 0; i < need; i++ {
		ord = append(ord, i)
	}
	sort.SliceStable(ord, func(a, b int) bool {
		ra := app.Threads[ord[a]].CacheRate + app.Threads[ord[a]].MemRate
		rb := app.Threads[ord[b]].CacheRate + app.Threads[ord[b]].MemRate
		return ra > rb
	})
	out := make([]mesh.Tile, need)
	for rank, threadIdx := range ord {
		out[threadIdx] = got[rank]
	}
	s.got, s.ord = got, ord
	return out, nil
}

// SAMPlacement picks the `need` free tiles with the lowest TC and
// assigns threads to them with a Hungarian solve over the full
// c·TC + m·TM cost — the quality-first arrival path, O(need³) per
// arrival.
type SAMPlacement struct{ sam samAssigner }

// Name implements Placement.
func (s *SAMPlacement) Name() string { return "sam" }

// Place implements Placement.
func (s *SAMPlacement) Place(lm *model.LatencyModel, app *workload.Application, fs *FreeSet) ([]mesh.Tile, error) {
	cand, err := s.sam.freeTiles(lm, app, fs)
	if err != nil {
		return nil, err
	}
	sort.Slice(cand, func(a, b int) bool {
		ta, tb := lm.TC(cand[a]), lm.TC(cand[b])
		if ta != tb {
			return ta < tb
		}
		return cand[a] < cand[b]
	})
	return s.sam.assign(lm, app, cand[:len(app.Threads)])
}

// FirstFitPlacement takes the `need` lowest-index free tiles and
// assigns threads to them with the same Hungarian solve as
// SAMPlacement — the single-application mapping (SAM) solve over
// whatever tiles happen to be free, with no preference among them.
type FirstFitPlacement struct{ sam samAssigner }

// Name implements Placement.
func (f *FirstFitPlacement) Name() string { return "first-fit" }

// Place implements Placement.
func (f *FirstFitPlacement) Place(lm *model.LatencyModel, app *workload.Application, fs *FreeSet) ([]mesh.Tile, error) {
	cand, err := f.sam.freeTiles(lm, app, fs)
	if err != nil {
		return nil, err
	}
	return f.sam.assign(lm, app, cand[:len(app.Threads)])
}

// samAssigner is the candidate, cost-matrix and Hungarian scratch
// shared by the placements that solve an optimal thread-to-tile
// assignment; they differ only in which free tiles they offer it.
type samAssigner struct {
	solver hungarian.Solver
	cand   []mesh.Tile
	cost   [][]float64
}

// freeTiles checks that app fits and returns every free tile in index
// order (scratch, valid until the next call).
func (s *samAssigner) freeTiles(lm *model.LatencyModel, app *workload.Application, fs *FreeSet) ([]mesh.Tile, error) {
	need := len(app.Threads)
	if need == 0 {
		return nil, fmt.Errorf("sched: placing empty application %q", app.Name)
	}
	if need > fs.Count() {
		return nil, fmt.Errorf("sched: %q needs %d tiles, %d free", app.Name, need, fs.Count())
	}
	cand := s.cand[:0]
	for t := 0; t < lm.NumTiles(); t++ {
		if fs.Free(mesh.Tile(t)) {
			cand = append(cand, mesh.Tile(t))
		}
	}
	s.cand = cand
	return cand, nil
}

// assign returns the minimum-total-latency assignment of app's threads
// onto tiles (one tile per thread): out[i] is thread i's tile.
func (s *samAssigner) assign(lm *model.LatencyModel, app *workload.Application, tiles []mesh.Tile) ([]mesh.Tile, error) {
	need := len(tiles)
	if cap(s.cost) < need {
		s.cost = make([][]float64, need)
	}
	cost := s.cost[:need]
	for i := range cost {
		if cap(cost[i]) < need {
			cost[i] = make([]float64, need)
		}
		cost[i] = cost[i][:need]
		th := app.Threads[i]
		for j, t := range tiles {
			cost[i][j] = lm.Cost(th.CacheRate, th.MemRate, t)
		}
	}
	rowToCol, _, err := s.solver.Solve(cost)
	if err != nil {
		return nil, fmt.Errorf("sched: %q placement: %w", app.Name, err)
	}
	out := make([]mesh.Tile, need)
	for i, j := range rowToCol {
		out[i] = tiles[j]
	}
	return out, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
