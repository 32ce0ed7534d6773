package mapping

import (
	"context"
	"fmt"
	"math"

	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/mesh"
	"obm/internal/stats"
)

// ClusterSA is a two-level annealer in the spirit of Lu, Xia & Jantsch
// (cluster-based simulated annealing, cited as [17] by the paper):
// tiles are grouped into contiguous clusters of clusterSize tiles of
// the sorted-by-TC list, annealing swaps whole clusters between
// applications under the paper's max-APL, and each application's
// threads are placed within its clusters by a Hungarian SAM solve. The
// coarse move space converges much faster than flat SA but cannot
// fine-tune individual tiles — exactly the gap SSS's sliding-window
// phase closes. The chip's tile count and every application's thread
// count must be multiples of clusterSize.
type ClusterSA struct {
	Seed uint64
}

const (
	// clusterSize is the number of tiles per cluster.
	clusterSize = 4
	// clusterIters is the number of proposed cluster swaps.
	clusterIters = 2000
)

// Name implements Mapper.
func (ClusterSA) Name() string { return fmt.Sprintf("ClusterSA(%d)", clusterSize) }

// Fingerprint implements Mapper. Cluster size and iteration count are
// constants, but the key keeps printing them so every cached artifact
// key stays byte-identical.
func (c ClusterSA) Fingerprint() string {
	return fmt.Sprintf("clustersa(cs=%d,iters=%d,seed=%d)", clusterSize, clusterIters, c.Seed)
}

// Map implements Mapper. Each application's SAM result is memoized by
// the set of clusters it owns, so a revisited set costs a map lookup
// instead of a Hungarian solve; the same set always yields the same
// tile list and hence the same result. A memo miss still runs up to two
// O(n³) solves, so the loop polls cancellation each move.
func (c ClusterSA) Map(ctx context.Context, p *core.Problem) (core.Mapping, error) {
	n := p.N()
	if n%clusterSize != 0 {
		return nil, fmt.Errorf("clustersa: cluster size %d does not divide %d tiles", clusterSize, n)
	}
	numClusters := n / clusterSize
	// Each application needs a whole number of clusters.
	clustersPer := make([]int, p.NumApps())
	total := 0
	for i := 0; i < p.NumApps(); i++ {
		lo, hi := p.AppThreads(i)
		if (hi-lo)%clusterSize != 0 {
			return nil, fmt.Errorf("clustersa: app %d has %d threads, not a multiple of cluster size %d", i, hi-lo, clusterSize)
		}
		clustersPer[i] = (hi - lo) / clusterSize
		total += clustersPer[i]
	}
	if total != numClusters {
		return nil, fmt.Errorf("clustersa: %d clusters for %d cluster slots", total, numClusters)
	}

	// Clusters are contiguous runs of the TC-sorted tile list, like the
	// section structure of SSS.
	sorted := p.Model().TilesByTC()
	clusterTiles := make([][]mesh.Tile, numClusters)
	for ci := range clusterTiles {
		clusterTiles[ci] = sorted[ci*clusterSize : (ci+1)*clusterSize]
	}

	// owner[ci] = application owning cluster ci. Initial assignment:
	// round-robin through the sorted clusters so every application gets
	// a spread of latencies (the SSS "select" intuition at cluster
	// granularity).
	owner := make([]int, numClusters)
	{
		remaining := append([]int(nil), clustersPer...)
		app := 0
		for ci := range owner {
			for remaining[app%len(remaining)] == 0 {
				app++
			}
			owner[ci] = app % len(remaining)
			remaining[app%len(remaining)]--
			app++
		}
	}

	// owns[i] is application i's cluster-ownership bitset. A swap of
	// clusters a and b between their two owners toggles both bits in
	// both sets, so the same toggle undoes it.
	setBytes := (numClusters + 7) / 8
	owns := make([][]byte, p.NumApps())
	for i := range owns {
		owns[i] = make([]byte, setBytes)
	}
	for ci, a := range owner {
		owns[a][ci/8] |= 1 << (ci % 8)
	}

	// memo[i] maps an ownership set of application i to its SAM result;
	// it gains at most two entries per move. num[i] is the cost for
	// owns[i], application i's APL numerator (max-APL over num is the
	// same cost/weight division and max as a fresh evaluation, bit for
	// bit).
	type samResult struct {
		assign []mesh.Tile
		cost   float64
	}
	memo := make([]map[string]samResult, p.NumApps())
	for i := range memo {
		memo[i] = make(map[string]samResult)
	}
	num := make([]float64, p.NumApps())
	sam := p.NewSAMSolver()
	var tiles []mesh.Tile
	// solveApp sets num[i] for owns[i], solving SAM over the owned
	// clusters' tiles in cluster-index order on a memo miss.
	solveApp := func(i int) error {
		if clustersPer[i] == 0 {
			return nil
		}
		r, ok := memo[i][string(owns[i])]
		if !ok {
			tiles = tiles[:0]
			for ci := range clusterTiles {
				if owns[i][ci/8]&(1<<(ci%8)) != 0 {
					tiles = append(tiles, clusterTiles[ci]...)
				}
			}
			lo, hi := p.AppThreads(i)
			var err error
			if r.assign, r.cost, err = sam.SolveSAM(lo, hi, tiles); err != nil {
				return err
			}
			memo[i][string(owns[i])] = r
		}
		num[i] = r.cost
		return nil
	}
	// mappingOf assembles the current sets' memoized assignments.
	mappingOf := func() core.Mapping {
		m := make(core.Mapping, n)
		for i := range memo {
			lo, _ := p.AppThreads(i)
			copy(m[lo:], memo[i][string(owns[i])].assign)
		}
		return m
	}

	rng := stats.NewRand(c.Seed)
	rep := engine.StartStage(ctx, c.Name())
	for i := range num {
		if err := solveApp(i); err != nil {
			return nil, err
		}
	}
	bestObj := core.MaxAPL{}.Value(p, num)
	bestM := mappingOf()
	curObj := bestObj
	temp := 0.05 * bestObj
	cooling := math.Exp(math.Log(1e-3) / float64(clusterIters))
	for it := 0; it < clusterIters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("clustersa: interrupted after %d/%d iterations: %w", it, clusterIters, err)
		}
		rep.Report(it, clusterIters)
		// Swap ownership of two clusters with different owners.
		a := rng.Intn(numClusters)
		b := rng.Intn(numClusters)
		x, y := owner[a], owner[b]
		if x == y {
			temp *= cooling
			continue
		}
		swap := func() {
			owner[a], owner[b] = owner[b], owner[a]
			for _, ci := range [2]int{a, b} {
				owns[x][ci/8] ^= 1 << (ci % 8)
				owns[y][ci/8] ^= 1 << (ci % 8)
			}
		}
		prevX, prevY := num[x], num[y]
		swap()
		if err := solveApp(x); err != nil {
			return nil, err
		}
		if err := solveApp(y); err != nil {
			return nil, err
		}
		obj := core.MaxAPL{}.Value(p, num)
		accept := obj <= curObj
		if !accept && temp > 0 {
			accept = rng.Float64() < math.Exp((curObj-obj)/temp)
		}
		if accept {
			curObj = obj
			if obj < bestObj {
				bestObj = obj
				bestM = mappingOf()
			}
		} else {
			swap()
			num[x], num[y] = prevX, prevY
		}
		temp *= cooling
	}
	rep.Finish(clusterIters, clusterIters)
	return bestM, nil
}
