package sched

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/stats"
	"obm/internal/workload"
)

func TestFreeSet(t *testing.T) {
	f := NewFreeSet(4)
	if f.Count() != 4 {
		t.Fatalf("new set count = %d, want 4", f.Count())
	}
	f.Take(2)
	f.Take(2) // idempotent
	if f.Count() != 3 || f.Free(2) {
		t.Errorf("after take: count %d, free(2) %v", f.Count(), f.Free(2))
	}
	f.Release(2)
	f.Release(2)
	if f.Count() != 4 || !f.Free(2) {
		t.Errorf("after release: count %d, free(2) %v", f.Count(), f.Free(2))
	}
}

func placementApp(n int) *workload.Application {
	app := &workload.Application{Name: "p"}
	for i := 0; i < n; i++ {
		app.Threads = append(app.Threads, workload.Thread{
			CacheRate: float64(n - i), // thread 0 heaviest
			MemRate:   0.2 * float64(n-i),
		})
	}
	return app
}

func TestPlacementsReturnDistinctFreeTiles(t *testing.T) {
	lm := testModel(t)
	for _, pl := range []Placement{&SpiralPlacement{}, &SAMPlacement{}, &FirstFitPlacement{}} {
		fs := NewFreeSet(lm.NumTiles())
		// Occupy a stripe so the placement must route around it.
		for tile := 8; tile < 24; tile++ {
			fs.Take(mesh.Tile(tile))
		}
		app := placementApp(12)
		tiles, err := pl.Place(lm, app, fs)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if len(tiles) != 12 {
			t.Fatalf("%s: placed %d tiles, want 12", pl.Name(), len(tiles))
		}
		seen := map[mesh.Tile]bool{}
		for _, tile := range tiles {
			if seen[tile] {
				t.Fatalf("%s: tile %d assigned twice", pl.Name(), tile)
			}
			seen[tile] = true
			if !fs.Free(tile) {
				t.Fatalf("%s: tile %d was not free", pl.Name(), tile)
			}
		}
		if fs.Count() != lm.NumTiles()-16 {
			t.Errorf("%s: Place mutated the free set", pl.Name())
		}
	}
}

func TestPlacementsDeterministic(t *testing.T) {
	lm := testModel(t)
	for _, mk := range []func() Placement{
		func() Placement { return &SpiralPlacement{} },
		func() Placement { return &SAMPlacement{} },
		func() Placement { return &FirstFitPlacement{} },
	} {
		fs := NewFreeSet(lm.NumTiles())
		app := placementApp(9)
		a, err := mk().Place(lm, app, fs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mk().Place(lm, app, fs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic at thread %d: %d vs %d", mk().Name(), i, a[i], b[i])
			}
		}
	}
}

// TestSpiralHeaviestThreadGetsBestTile: the heaviest thread lands on
// the lowest-TC tile of the collected set.
func TestSpiralHeaviestThreadGetsBestTile(t *testing.T) {
	lm := testModel(t)
	fs := NewFreeSet(lm.NumTiles())
	app := placementApp(6)
	tiles, err := (&SpiralPlacement{}).Place(lm, app, fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(tiles); i++ {
		if lm.TC(tiles[0]) > lm.TC(tiles[i]) {
			t.Fatalf("heaviest thread on TC %.3f but thread %d got %.3f",
				lm.TC(tiles[0]), i, lm.TC(tiles[i]))
		}
	}
}

// TestSpiralStaysNearSeed: with a free chip, the collected tiles sit
// within the smallest rings around the min-TC seed — the nearest-
// neighbor property that makes spiral placement cheap to reason about.
func TestSpiralStaysNearSeed(t *testing.T) {
	lm := testModel(t)
	msh := lm.Mesh()
	fs := NewFreeSet(lm.NumTiles())
	app := placementApp(5)
	tiles, err := (&SpiralPlacement{}).Place(lm, app, fs)
	if err != nil {
		t.Fatal(err)
	}
	// Seed = global min-TC tile on an empty chip.
	seed := mesh.Tile(0)
	for tt := 1; tt < lm.NumTiles(); tt++ {
		if lm.TC(mesh.Tile(tt)) < lm.TC(seed) {
			seed = mesh.Tile(tt)
		}
	}
	for _, tile := range tiles {
		if msh.Hops(seed, tile) > 2 {
			t.Errorf("tile %d is %d hops from seed %d; want a tight cluster", tile, msh.Hops(seed, tile), seed)
		}
	}
}

// spiralReference is SpiralPlacement as first written: seed at the
// min-TC free tile, collect free tiles ring by ring (each ring sorted
// by TC, index), truncate to need, sort the collected set by TC and
// hand the heaviest threads the first tiles.
func spiralReference(lm *model.LatencyModel, app *workload.Application, fs *FreeSet) []mesh.Tile {
	byTC := func(ts []mesh.Tile) {
		sort.Slice(ts, func(a, b int) bool {
			ta, tb := lm.TC(ts[a]), lm.TC(ts[b])
			if ta != tb {
				return ta < tb
			}
			return ts[a] < ts[b]
		})
	}
	need := len(app.Threads)
	msh := lm.Mesh()
	seed := mesh.Tile(-1)
	for t := 0; t < msh.NumTiles(); t++ {
		if tt := mesh.Tile(t); fs.Free(tt) && (seed < 0 || lm.TC(tt) < lm.TC(seed)) {
			seed = tt
		}
	}
	got := []mesh.Tile{seed}
	sc := msh.Coord(seed)
	for r := 1; len(got) < need && r <= msh.Rows()+msh.Cols(); r++ {
		var ring []mesh.Tile
		add := func(row, col int) {
			if row >= 0 && row < msh.Rows() && col >= 0 && col < msh.Cols() {
				if t := msh.TileAt(row, col); fs.Free(t) {
					ring = append(ring, t)
				}
			}
		}
		for dr := -r; dr <= r; dr++ {
			rem := r - max(dr, -dr)
			if rem == 0 {
				add(sc.Row+dr, sc.Col)
				continue
			}
			add(sc.Row+dr, sc.Col-rem)
			add(sc.Row+dr, sc.Col+rem)
		}
		byTC(ring)
		got = append(got, ring...)
	}
	got = got[:need]
	byTC(got)
	ord := make([]int, need)
	for i := range ord {
		ord[i] = i
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
	return out
}

// TestSpiralMatchesReference: one walk of the model's tile order picks
// the same tiles for the same threads as the ring-by-ring sorts, on
// random chip states, application sizes and thread weights (with
// ties), on square and non-square meshes.
func TestSpiralMatchesReference(t *testing.T) {
	rng := stats.NewRand(7)
	for _, dims := range [][2]int{{8, 8}, {6, 4}, {3, 7}} {
		lm := model.MustNew(mesh.MustNew(dims[0], dims[1]), model.DefaultParams())
		sp := &SpiralPlacement{}
		for trial := 0; trial < 300; trial++ {
			fs := NewFreeSet(lm.NumTiles())
			for tile := range lm.NumTiles() {
				if rng.Float64() < 0.5 {
					fs.Take(mesh.Tile(tile))
				}
			}
			if fs.Count() == 0 {
				continue
			}
			app := &workload.Application{Name: "r"}
			for range 1 + rng.Intn(fs.Count()) {
				app.Threads = append(app.Threads, workload.Thread{
					CacheRate: float64(rng.Intn(4)),
					MemRate:   float64(rng.Intn(2)),
				})
			}
			got, err := sp.Place(lm, app, fs)
			if err != nil {
				t.Fatal(err)
			}
			want := spiralReference(lm, app, fs)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%dx%d trial %d: thread %d on tile %d, reference %d",
						dims[0], dims[1], trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSAMBeatsSpiralOnItsCost: the Hungarian placement never pays more
// total assignment cost than the spiral greedy for the same arrival on
// the same chip state.
func TestSAMBeatsSpiralOnItsCost(t *testing.T) {
	lm := testModel(t)
	app := placementApp(10)
	cost := func(tiles []mesh.Tile) float64 {
		var sum float64
		for i, th := range app.Threads {
			sum += lm.Cost(th.CacheRate, th.MemRate, tiles[i])
		}
		return sum
	}
	fs := NewFreeSet(lm.NumTiles())
	spiral, err := (&SpiralPlacement{}).Place(lm, app, fs)
	if err != nil {
		t.Fatal(err)
	}
	sam, err := (&SAMPlacement{}).Place(lm, app, fs)
	if err != nil {
		t.Fatal(err)
	}
	if cost(sam) > cost(spiral)+1e-9 {
		t.Errorf("SAM placement cost %.4f exceeds spiral %.4f", cost(sam), cost(spiral))
	}
}

func TestPlacementErrors(t *testing.T) {
	lm := testModel(t)
	for _, pl := range []Placement{&SpiralPlacement{}, &SAMPlacement{}, &FirstFitPlacement{}} {
		fs := NewFreeSet(lm.NumTiles())
		for tile := 0; tile < lm.NumTiles()-2; tile++ {
			fs.Take(mesh.Tile(tile))
		}
		if _, err := pl.Place(lm, placementApp(3), fs); err == nil {
			t.Errorf("%s: accepted app larger than free capacity", pl.Name())
		}
		if _, err := pl.Place(lm, &workload.Application{Name: "empty"}, fs); err == nil {
			t.Errorf("%s: accepted empty application", pl.Name())
		}
	}
}

// randomArrival draws a chip state with about half the tiles taken and
// an application of 1..maxThreads threads (capped by the free count)
// with fractional rates, ties included.
func randomArrival(rng *stats.Rand, lm *model.LatencyModel, maxThreads int) (*workload.Application, *FreeSet) {
	fs := NewFreeSet(lm.NumTiles())
	for tile := range lm.NumTiles() {
		if rng.Float64() < 0.5 {
			fs.Take(mesh.Tile(tile))
		}
	}
	if fs.Count() == 0 {
		fs.Release(mesh.Tile(rng.Intn(lm.NumTiles())))
	}
	app := &workload.Application{Name: "r"}
	for range 1 + rng.Intn(min(maxThreads, fs.Count())) {
		th := workload.Thread{CacheRate: rng.Float64() * 4, MemRate: rng.Float64()}
		if rng.Intn(4) == 0 {
			th = workload.Thread{CacheRate: 1, MemRate: 0.5}
		}
		app.Threads = append(app.Threads, th)
	}
	return app, fs
}

// TestPlacementsPinned hashes the tiles SAMPlacement and
// FirstFitPlacement return for random chip states and rate draws on
// square and non-square meshes, with one placement value reused across
// every draw (as the stream runner does), so any change to candidate
// selection, cost matrix or assignment solve shows as a moved hash.
func TestPlacementsPinned(t *testing.T) {
	want := map[string]uint64{
		"8x8": 0xf6d64e04ccd47a05,
		"6x4": 0x1647f5f6cdbc0a09,
		"3x7": 0x1ef25e95b1346505,
	}
	for _, dims := range [][2]int{{8, 8}, {6, 4}, {3, 7}} {
		lm := model.MustNew(mesh.MustNew(dims[0], dims[1]), model.DefaultParams())
		rng := stats.NewRand(11)
		sam, ff := &SAMPlacement{}, &FirstFitPlacement{}
		h := fnv.New64a()
		var buf [4]byte
		for trial := 0; trial < 200; trial++ {
			app, fs := randomArrival(rng, lm, lm.NumTiles())
			for _, pl := range []Placement{sam, ff} {
				tiles, err := pl.Place(lm, app, fs)
				if err != nil {
					t.Fatal(err)
				}
				for _, tile := range tiles {
					binary.LittleEndian.PutUint32(buf[:], uint32(tile))
					h.Write(buf[:])
				}
			}
		}
		name := fmt.Sprintf("%dx%d", dims[0], dims[1])
		if got := h.Sum64(); got != want[name] {
			t.Errorf("%s: placements hash %#x, pinned %#x", name, got, want[name])
		}
	}
}

// minCostByPermutation returns the least total lm.Cost of app's
// threads over every assignment of them onto tiles (len(tiles) ==
// len(app.Threads)).
func minCostByPermutation(lm *model.LatencyModel, app *workload.Application, tiles []mesh.Tile) float64 {
	perm := append([]mesh.Tile(nil), tiles...)
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			var sum float64
			for i, th := range app.Threads {
				sum += lm.Cost(th.CacheRate, th.MemRate, perm[i])
			}
			best = min(best, sum)
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

// TestSAMPlacementOptimal: SAMPlacement and FirstFitPlacement take the
// first free tiles of their order (ascending TC, ascending index) and
// assign threads to them at the minimum total c·TC + m·TM cost, checked
// against every permutation for applications of up to 6 threads.
func TestSAMPlacementOptimal(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {6, 4}, {3, 7}} {
		lm := model.MustNew(mesh.MustNew(dims[0], dims[1]), model.DefaultParams())
		index := make([]mesh.Tile, lm.NumTiles())
		for i := range index {
			index[i] = mesh.Tile(i)
		}
		rng := stats.NewRand(3)
		for _, c := range []struct {
			pl    Placement
			order []mesh.Tile
		}{
			{&SAMPlacement{}, lm.TilesByTC()},
			{&FirstFitPlacement{}, index},
		} {
			for trial := 0; trial < 60; trial++ {
				app, fs := randomArrival(rng, lm, 6)
				var cand []mesh.Tile
				for _, tile := range c.order {
					if len(cand) < len(app.Threads) && fs.Free(tile) {
						cand = append(cand, tile)
					}
				}
				got, err := c.pl.Place(lm, app, fs)
				if err != nil {
					t.Fatal(err)
				}
				inCand := map[mesh.Tile]bool{}
				for _, tile := range cand {
					inCand[tile] = true
				}
				var cost float64
				for i, th := range app.Threads {
					if !inCand[got[i]] {
						t.Fatalf("%s %dx%d trial %d: thread %d on tile %d, not a candidate %v",
							c.pl.Name(), dims[0], dims[1], trial, i, got[i], cand)
					}
					delete(inCand, got[i])
					cost += lm.Cost(th.CacheRate, th.MemRate, got[i])
				}
				if best := minCostByPermutation(lm, app, cand); cost > best+1e-9*math.Max(1, best) {
					t.Fatalf("%s %dx%d trial %d: cost %.12g, brute-force minimum %.12g",
						c.pl.Name(), dims[0], dims[1], trial, cost, best)
				}
			}
		}
	}
}
