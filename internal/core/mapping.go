package core

import (
	"fmt"

	"obm/internal/mesh"
	"obm/internal/stats"
)

// Mapping is a thread-to-tile permutation: Mapping[j] is the tile hosting
// flattened thread j (the paper's pi(j) = k, 0-based).
type Mapping []mesh.Tile

// Clone returns a deep copy of the mapping.
func (m Mapping) Clone() Mapping {
	out := make(Mapping, len(m))
	copy(out, m)
	return out
}

// Validate reports an error unless m is a permutation of tiles 0..N-1.
func (m Mapping) Validate(n int) error {
	if len(m) != n {
		return fmt.Errorf("core: mapping has %d entries for %d threads", len(m), n)
	}
	seen := make([]bool, n)
	for j, t := range m {
		if t < 0 || int(t) >= n {
			return fmt.Errorf("core: thread %d mapped to out-of-range tile %d", j, t)
		}
		if seen[t] {
			return fmt.Errorf("core: tile %d assigned to multiple threads", t)
		}
		seen[t] = true
	}
	return nil
}

// IdentityMapping maps thread j to tile j.
func IdentityMapping(n int) Mapping {
	m := make(Mapping, n)
	for j := range m {
		m[j] = mesh.Tile(j)
	}
	return m
}

// RandomMapping returns a uniformly random permutation mapping drawn from
// rng.
func RandomMapping(n int, rng *stats.Rand) Mapping {
	m := make(Mapping, n)
	RandomMappingInto(m, rng)
	return m
}

// RandomMappingInto fills m with a uniformly random permutation drawn
// from rng, allocating nothing. It consumes exactly the same random
// draws as RandomMapping, so the two produce identical permutations
// from equal generator states — batch samplers (Monte Carlo,
// RandomAverages) reuse one buffer across trials without perturbing any
// published stream. The loop is rng.Shuffle's descending Fisher–Yates
// over the identity, with the same Intn(i+1) calls in the same order,
// inlined to save a closure call per swap.
func RandomMappingInto(m Mapping, rng *stats.Rand) {
	for j := range m {
		m[j] = mesh.Tile(j)
	}
	for i := len(m) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		m[i], m[j] = m[j], m[i]
	}
}

// InverseOn returns the tile-to-thread inverse of m (length N).
func (m Mapping) InverseOn(n int) []int {
	inv := make([]int, n)
	for i := range inv {
		inv[i] = -1
	}
	for j, t := range m {
		inv[t] = j
	}
	return inv
}

// Evaluation bundles every latency metric the paper reports for one
// mapping of one problem.
type Evaluation struct {
	// APLs is the per-application average packet latency d_i (eq. 5),
	// indexed by application. Idle applications with zero total rate have
	// APL 0 and are excluded from MaxAPL and DevAPL.
	APLs []float64
	// MaxAPL is the paper's objective d_max = max_i d_i (eq. 7).
	MaxAPL float64
	// DevAPL is the population standard deviation of the APLs.
	DevAPL float64
	// GlobalAPL is the g-APL: total packet latency over total volume.
	GlobalAPL float64
	// MinMaxRatio is min_i d_i / max_i d_i, the alternative balance metric
	// discussed in Section III.A.
	MinMaxRatio float64
}

// Clone returns a deep copy of the evaluation (APLs is its only
// reference field). Cache layers hand clones to callers so a stored
// evaluation can never be corrupted through a returned slice.
func (e Evaluation) Clone() Evaluation {
	out := e
	out.APLs = append([]float64(nil), e.APLs...)
	return out
}

// Evaluate computes all latency metrics for mapping m (which must be a
// valid permutation for p; behaviour on invalid mappings is undefined —
// mappers in this repository always produce validated permutations, and
// the harness re-validates at experiment boundaries).
func (p *Problem) Evaluate(m Mapping) Evaluation {
	a := p.NumApps()
	num := make([]float64, a) // per-application total packet latency
	var totalNum float64
	for j, t := range m {
		c := p.ThreadCost(j, t)
		num[p.appOf[j]] += c
		totalNum += c
	}
	return p.summarize(num, totalNum, make([]float64, 0, a))
}

// summarize turns one mapping's per-application packet-latency
// numerators (len NumApps) and their total into its Evaluation. It
// divides num in place into the APLs, which the result's APLs then
// aliases, and collects the active APLs in active's backing array, so a
// caller that reuses both allocates nothing. Evaluate and RandomAverages
// both end here, so their arithmetic cannot drift apart.
func (p *Problem) summarize(num []float64, total float64, active []float64) Evaluation {
	ev := Evaluation{APLs: num}
	active = active[:0]
	for i, w := range p.appWeight {
		if w == 0 {
			num[i] = 0 // idle pseudo-application
			continue
		}
		num[i] /= w
		active = append(active, num[i])
	}
	if len(active) > 0 {
		ev.MaxAPL = stats.MustMax(active)
		ev.DevAPL = stats.StdDev(active)
		ev.MinMaxRatio = stats.MinMaxRatio(active)
	}
	if p.totalRate > 0 {
		ev.GlobalAPL = total / p.totalRate
	}
	return ev
}

// MaxAPL returns the max-APL d_max of mapping m. Unlike Evaluate it
// allocates nothing: per-application numerators accumulate in the same
// thread order (application thread ranges are contiguous), so the value
// is bit-identical to Evaluate(m).MaxAPL at a fraction of the cost.
// Outside tests only Exact's branch and bound calls it; the
// sample-heavy mappers score through BatchEvaluator (Monte Carlo) and
// incremental numerators (annealing, SSS).
func (p *Problem) MaxAPL(m Mapping) float64 {
	var mx float64
	for i := range p.appWeight {
		w := p.appWeight[i]
		if w == 0 {
			continue
		}
		var num float64
		for j := p.boundaries[i]; j < p.boundaries[i+1]; j++ {
			num += p.ThreadCost(j, m[j])
		}
		if apl := num / w; apl > mx {
			mx = apl
		}
	}
	return mx
}

// AppGrid renders the mapping as a rows x cols grid of 1-based
// application IDs, the format of the paper's Figures 4 and 8.
func (p *Problem) AppGrid(m Mapping) [][]int {
	msh := p.lm.Mesh()
	grid := make([][]int, msh.Rows())
	for r := range grid {
		grid[r] = make([]int, msh.Cols())
	}
	for j, t := range m {
		c := msh.Coord(t)
		grid[c.Row][c.Col] = p.appOf[j] + 1
	}
	return grid
}
