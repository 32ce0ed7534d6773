package core

import "obm/internal/mesh"

// batchTableMaxN caps the instance size for which BatchEvaluator
// precomputes the full thread x slot cost table: N*N float64s is 32 KiB
// at the paper's N=64 and 2 MiB at N=512, past which the table stops
// fitting in cache and on-the-fly evaluation wins anyway.
const batchTableMaxN = 512

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
	// cost[j*n+s] = ThreadCost(j, s); nil above batchTableMaxN.
	cost []float64
	n    int
	// nums is the batch numerator matrix, len >= batch*NumApps, laid
	// out mapping-major.
	nums []float64
}

// BatchEvaluator returns a batch scorer for obj (nil means the default
// max-APL) on p.
func (p *Problem) BatchEvaluator(obj Objective) *BatchEvaluator {
	b := &BatchEvaluator{p: p, obj: ObjectiveOrDefault(obj), n: p.N()}
	if b.n <= batchTableMaxN {
		b.cost = make([]float64, b.n*b.n)
		for j := 0; j < b.n; j++ {
			row := b.cost[j*b.n : (j+1)*b.n]
			for s := range row {
				row[s] = p.ThreadCost(j, mesh.Tile(s))
			}
		}
	}
	return b
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
	if b.cost != nil {
		// Thread-major accumulation: one pass over the cost table, each
		// row hit len(ms) times while hot. Per (mapping, app) the adds
		// still arrive in ascending thread order — Numerators' order.
		for j := 0; j < b.n; j++ {
			row := b.cost[j*b.n : (j+1)*b.n]
			a := b.p.appOf[j]
			for k := range ms {
				nums[k*apps+a] += row[ms[k][j]]
			}
		}
	} else {
		for k, m := range ms {
			num := nums[k*apps : (k+1)*apps]
			for j, t := range m {
				num[b.p.appOf[j]] += b.p.ThreadCost(j, t)
			}
		}
	}
	for k := range ms {
		out[k] = b.obj.Value(b.p, nums[k*apps:(k+1)*apps])
	}
}
