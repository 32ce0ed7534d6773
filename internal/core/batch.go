package core

import (
	"fmt"

	"obm/internal/mesh"
	"obm/internal/stats"
)

// BatchEvaluator scores many mappings of one problem against one
// objective using a structure-of-arrays layout: the thread-placement
// cost function is flattened into one contiguous cost[j*N+s] table (the
// ThreadCost(j, s) matrix), and a batch is accumulated thread-major so
// each table row is streamed once across the whole batch instead of
// being gathered per mapping. Results are bit-identical to calling
// Scorer.Score (and thus Evaluate) per mapping: for every mapping each
// application's numerator receives its thread costs in ascending thread
// order, the exact float accumulation order of Problem.Numerators, and
// the table entries are produced by the same lm.Cost calls.
//
// Not safe for concurrent use; give each goroutine its own (the table
// build cost is O(N^2) once, far below one Monte-Carlo chunk).
type BatchEvaluator struct {
	p   *Problem
	obj Objective
	// cost[j*n+s] = ThreadCost(j, s).
	cost []float64
	n    int
	// nums is the batch numerator matrix, len >= batch*NumApps, laid
	// out mapping-major.
	nums []float64
}

// BatchEvaluator returns a batch scorer for obj (nil means the default
// max-APL) on p.
func (p *Problem) BatchEvaluator(obj Objective) *BatchEvaluator {
	return &BatchEvaluator{p: p, obj: ObjectiveOrDefault(obj), n: p.N(), cost: p.costTable()}
}

// costTable returns the flat thread x tile cost matrix,
// cost[j*N+t] = ThreadCost(j, t): the one table builder behind
// BatchEvaluator and RandomAverages.
func (p *Problem) costTable() []float64 {
	n := p.N()
	cost := make([]float64, n*n)
	for j := 0; j < n; j++ {
		row := cost[j*n : (j+1)*n]
		for t := range row {
			row[t] = p.ThreadCost(j, mesh.Tile(t))
		}
	}
	return cost
}

// Objective returns the objective the evaluator scores.
func (b *BatchEvaluator) Objective() Objective { return b.obj }

// EvaluateBatch scores each mapping in ms, writing the objective cost
// of ms[k] to out[k]. len(out) must be >= len(ms), and every mapping
// must be a valid permutation for the evaluator's problem (as produced
// by the mappers; no revalidation happens here). Steady-state calls
// with a stable batch size allocate nothing.
func (b *BatchEvaluator) EvaluateBatch(ms []Mapping, out []float64) {
	apps := b.p.NumApps()
	need := len(ms) * apps
	if cap(b.nums) < need {
		b.nums = make([]float64, need)
	}
	nums := b.nums[:need]
	for i := range nums {
		nums[i] = 0
	}
	// Thread-major accumulation: one pass over the cost table, each row
	// hit len(ms) times while hot. Per (mapping, app) the adds still
	// arrive in ascending thread order — Numerators' order.
	for j := 0; j < b.n; j++ {
		row := b.cost[j*b.n : (j+1)*b.n]
		a := b.p.appOf[j]
		for k := range ms {
			nums[k*apps+a] += row[ms[k][j]]
		}
	}
	for k := range ms {
		out[k] = b.obj.Value(b.p, nums[k*apps:(k+1)*apps])
	}
}

// RandomAverage is the mean of Evaluate's g-APL, max-APL and dev-APL
// over a run of uniformly random mappings of one problem: the "random
// mapping" baseline of the paper's Table 1.
type RandomAverage struct {
	GlobalAPL, MaxAPL, DevAPL float64
}

// RandomAverages scores draws uniformly random permutations, taken from
// one stats.NewRand(seed) stream, against every problem in ps and
// returns each problem's mean metrics. Every problem must have
// the same N: a permutation of N tiles is then one draw for all of them,
// and the result for ps[k] equals drawing from a fresh NewRand(seed) for
// ps[k] alone, because the draws never depend on the problem.
//
// The result is bit-identical to summing p.Evaluate(RandomMapping(N,
// rng)) in draw order and dividing by draws: each draw fills one reused
// Mapping through RandomMappingInto, accumulates the per-application
// numerators and their total in ascending thread order from the
// problem's cost table, and ends in Evaluate's own summarize. Nothing
// is allocated per draw; each problem costs one N x N table.
func RandomAverages(ps []*Problem, seed uint64, draws int) ([]RandomAverage, error) {
	if draws <= 0 {
		return nil, fmt.Errorf("core: random averages need draws > 0, got %d", draws)
	}
	if len(ps) == 0 {
		return nil, nil
	}
	n := ps[0].N()
	costs := make([][]float64, len(ps))
	maxApps := 0
	for k, p := range ps {
		if p.N() != n {
			return nil, fmt.Errorf("core: random averages need one N, got %d and %d", n, p.N())
		}
		costs[k] = p.costTable()
		maxApps = max(maxApps, p.NumApps())
	}
	num := make([]float64, maxApps)
	active := make([]float64, 0, maxApps)
	m := make(Mapping, n)
	rng := stats.NewRand(seed)
	out := make([]RandomAverage, len(ps))
	for d := 0; d < draws; d++ {
		RandomMappingInto(m, rng)
		for k, p := range ps {
			cost := costs[k]
			num := num[:p.NumApps()]
			var total float64
			for i := range num {
				var sum float64
				for j := p.boundaries[i]; j < p.boundaries[i+1]; j++ {
					c := cost[j*n+int(m[j])]
					sum += c
					total += c
				}
				num[i] = sum
			}
			ev := p.summarize(num, total, active)
			out[k].GlobalAPL += ev.GlobalAPL
			out[k].MaxAPL += ev.MaxAPL
			out[k].DevAPL += ev.DevAPL
		}
	}
	for k := range out {
		out[k].GlobalAPL /= float64(draws)
		out[k].MaxAPL /= float64(draws)
		out[k].DevAPL /= float64(draws)
	}
	return out, nil
}
