package sched

import (
	"fmt"
	"sort"

	"obm/internal/core"
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
// at the free tile with the lowest shared-cache latency TC, grow
// Manhattan rings outward until the application fits — taking the
// lowest-TC tiles of the last ring when only part of it is needed —
// then hand the heaviest threads the lowest-TC tiles collected.
// O(N + need·log need) per arrival with no assignment solve — the
// fast-path baseline against Hungarian placement.
type SpiralPlacement struct {
	rings []int       // scratch: free tiles per ring
	got   []mesh.Tile // scratch: collected tiles
	ord   []int       // scratch: thread order
}

// Name implements Placement.
func (s *SpiralPlacement) Name() string { return "spiral" }

// Place implements Placement.
func (s *SpiralPlacement) Place(lm *model.LatencyModel, app *workload.Application, fs *FreeSet) ([]mesh.Tile, error) {
	if err := checkFits(app, fs); err != nil {
		return nil, err
	}
	need := len(app.Threads)
	msh := lm.Mesh()
	order := lm.TilesByTC()
	seed := order[0]
	for _, t := range order {
		if fs.Free(t) {
			seed = t
			break
		}
	}

	// Ring r holds the free tiles r hops from the seed (ring 0 is the
	// seed). Rings before the last one needed are taken whole.
	rings := s.rings[:0]
	for range msh.Rows() + msh.Cols() - 1 {
		rings = append(rings, 0)
	}
	for t := range msh.NumTiles() {
		if tt := mesh.Tile(t); fs.Free(tt) {
			rings[msh.Hops(seed, tt)]++
		}
	}
	last, partial := 0, need
	for partial > rings[last] {
		partial -= rings[last]
		last++
	}
	s.rings = rings

	// One walk of the TC order collects the complete rings and the
	// first partial tiles of the last ring, already ascending by TC.
	got := s.got[:0]
	for _, t := range order {
		if len(got) == need {
			break
		}
		if !fs.Free(t) {
			continue
		}
		switch r := msh.Hops(seed, t); {
		case r < last:
			got = append(got, t)
		case r == last && partial > 0:
			got = append(got, t)
			partial--
		}
	}
	// Heaviest threads onto the lowest-TC tiles of the collected set.
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
// assigns threads to them with core's SAM solve, one Hungarian solve
// over the full c·TC + m·TM cost — the quality-first arrival path,
// O(need³) per arrival.
type SAMPlacement struct{ sam samAssigner }

// Name implements Placement.
func (s *SAMPlacement) Name() string { return "sam" }

// Place implements Placement.
func (s *SAMPlacement) Place(lm *model.LatencyModel, app *workload.Application, fs *FreeSet) ([]mesh.Tile, error) {
	return s.sam.place(lm, app, fs, lm.TilesByTC())
}

// FirstFitPlacement takes the `need` lowest-index free tiles and
// assigns threads to them with the same Hungarian solve as
// SAMPlacement — the single-application mapping (SAM) solve over
// whatever tiles happen to be free, with no preference among them.
type FirstFitPlacement struct {
	sam   samAssigner
	index []mesh.Tile // every tile in index order, built once
}

// Name implements Placement.
func (f *FirstFitPlacement) Name() string { return "first-fit" }

// Place implements Placement.
func (f *FirstFitPlacement) Place(lm *model.LatencyModel, app *workload.Application, fs *FreeSet) ([]mesh.Tile, error) {
	if len(f.index) != lm.NumTiles() {
		f.index = lm.Mesh().Tiles()
	}
	return f.sam.place(lm, app, fs, f.index)
}

// checkFits reports an error unless app has threads and fs has a free
// tile for each of them.
func checkFits(app *workload.Application, fs *FreeSet) error {
	need := len(app.Threads)
	if need == 0 {
		return fmt.Errorf("sched: placing empty application %q", app.Name)
	}
	if need > fs.Count() {
		return fmt.Errorf("sched: %q needs %d tiles, %d free", app.Name, need, fs.Count())
	}
	return nil
}

// samAssigner is the candidate and rate scratch shared by the
// placements that solve an optimal thread-to-tile assignment with
// core's SAM solve; they differ only in the tile order they offer it.
type samAssigner struct {
	solver     core.Assigner
	cand       []mesh.Tile
	cache, mem []float64
}

// place assigns app's threads to the first free tiles of order, one
// per thread, at the minimum total latency: out[i] is thread i's tile.
func (s *samAssigner) place(lm *model.LatencyModel, app *workload.Application, fs *FreeSet, order []mesh.Tile) ([]mesh.Tile, error) {
	if err := checkFits(app, fs); err != nil {
		return nil, err
	}
	cand := s.cand[:0]
	for _, t := range order {
		if len(cand) == len(app.Threads) {
			break
		}
		if fs.Free(t) {
			cand = append(cand, t)
		}
	}
	cache, mem := s.cache[:0], s.mem[:0]
	for _, th := range app.Threads {
		cache = append(cache, th.CacheRate)
		mem = append(mem, th.MemRate)
	}
	s.cand, s.cache, s.mem = cand, cache, mem
	rowToCol, _, err := s.solver.Assign(lm, cache, mem, cand)
	if err != nil {
		return nil, fmt.Errorf("sched: %q placement: %w", app.Name, err)
	}
	out := make([]mesh.Tile, len(rowToCol))
	for i, j := range rowToCol {
		out[i] = cand[j]
	}
	return out, nil
}
