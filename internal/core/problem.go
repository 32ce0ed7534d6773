// Package core defines the On-chip latency Balanced Mapping (OBM) problem
// of the paper (Section III.B) and its building blocks: the thread-to-tile
// Mapping, the per-application Average Packet Latency (APL) metrics, and
// the polynomial-time Single Application Mapping (SAM) solver of
// Section IV.A. As in the paper, every thread gets a tile of its own.
package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/workload"
)

// Problem is a fully-specified OBM instance: a latency model over N tiles
// and a workload with exactly N threads (pad the workload first if it is
// smaller — see workload.PadTo). A mapping places each thread on its own
// tile. Problems are immutable after construction and safe for
// concurrent use by multiple mappers.
type Problem struct {
	lm *model.LatencyModel
	w  *workload.Workload

	// Flattened, cached views of the workload.
	cache      []float64 // c_j
	mem        []float64 // m_j
	boundaries []int     // N_0..N_A
	appOf      []int     // thread -> application index
	appWeight  []float64 // per-application sum of (c_j+m_j)
	totalRate  float64   // sum over all threads of (c_j+m_j)
	totalCache float64   // sum over all threads of c_j
	totalMem   float64   // sum over all threads of m_j

	// fingerprint caches Fingerprint()'s content hash (computed once;
	// Problems are immutable after construction).
	fpOnce sync.Once
	fp     string
}

// NewProblem validates and builds an OBM instance. The workload thread
// count must equal the tile count of the latency model.
func NewProblem(lm *model.LatencyModel, w *workload.Workload) (*Problem, error) {
	if lm == nil {
		return nil, fmt.Errorf("core: nil latency model")
	}
	if w == nil {
		return nil, fmt.Errorf("core: nil workload")
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if got, want := w.NumThreads(), lm.NumTiles(); got != want {
		return nil, fmt.Errorf("core: workload %q has %d threads for %d tiles (PadTo first?)", w.Name, got, want)
	}
	p := &Problem{
		lm:         lm,
		w:          w,
		cache:      w.CacheRates(),
		mem:        w.MemRates(),
		boundaries: w.Boundaries(),
	}
	n := w.NumThreads()
	p.appOf = make([]int, n)
	p.appWeight = make([]float64, w.NumApps())
	for i := 0; i < w.NumApps(); i++ {
		for j := p.boundaries[i]; j < p.boundaries[i+1]; j++ {
			p.appOf[j] = i
			p.appWeight[i] += p.cache[j] + p.mem[j]
			p.totalCache += p.cache[j]
			p.totalMem += p.mem[j]
		}
		p.totalRate += p.appWeight[i]
	}
	return p, nil
}

// MustNewProblem is NewProblem but panics on error.
func MustNewProblem(lm *model.LatencyModel, w *workload.Workload) *Problem {
	p, err := NewProblem(lm, w)
	if err != nil {
		panic(err)
	}
	return p
}

// N returns the number of threads (== tiles).
func (p *Problem) N() int { return len(p.cache) }

// NumApps returns the number of applications A.
func (p *Problem) NumApps() int { return len(p.appWeight) }

// Model returns the latency model.
func (p *Problem) Model() *model.LatencyModel { return p.lm }

// Workload returns the workload.
func (p *Problem) Workload() *workload.Workload { return p.w }

// CacheRate returns c_j of flattened thread j.
func (p *Problem) CacheRate(j int) float64 { return p.cache[j] }

// MemRate returns m_j of flattened thread j.
func (p *Problem) MemRate(j int) float64 { return p.mem[j] }

// AppOfThread returns the application index owning flattened thread j.
func (p *Problem) AppOfThread(j int) int { return p.appOf[j] }

// AppThreads returns the half-open flattened thread range [lo, hi) of
// application i.
func (p *Problem) AppThreads(i int) (lo, hi int) {
	return p.boundaries[i], p.boundaries[i+1]
}

// AppWeight returns the total request rate of application i (the APL
// denominator of eq. 5).
func (p *Problem) AppWeight(i int) float64 { return p.appWeight[i] }

// TotalRate returns the chip-wide total request rate (the g-APL
// denominator).
func (p *Problem) TotalRate() float64 { return p.totalRate }

// ThreadCost returns the total packet latency contributed by thread j
// when placed on tile t: c_j*TC(t) + m_j*TM(t) (eq. 13).
func (p *Problem) ThreadCost(j int, t mesh.Tile) float64 {
	return p.lm.Cost(p.cache[j], p.mem[j], t)
}

// Fingerprint returns a stable content key for the instance: two
// Problems with the same mesh geometry, per-tile latencies,
// thread rates, and application boundaries share a fingerprint even
// when built independently. The scenario artifact cache keys shared
// mapper invocations on it, so the hash covers everything a Mapper or
// Evaluate can observe and nothing else (names and construction order
// do not matter). Computed once and cached; Problems are immutable.
func (p *Problem) Fingerprint() string {
	p.fpOnce.Do(func() {
		h := fnv.New64a()
		buf := make([]byte, 8)
		wu := func(v uint64) {
			binary.LittleEndian.PutUint64(buf, v)
			h.Write(buf)
		}
		wf := func(v float64) { wu(math.Float64bits(v)) }
		msh := p.lm.Mesh()
		wu(uint64(msh.Rows()))
		wu(uint64(msh.Cols()))
		for _, v := range p.lm.TCArray() {
			wf(v)
		}
		for _, v := range p.lm.TMArray() {
			wf(v)
		}
		for j := range p.cache {
			wf(p.cache[j])
			wf(p.mem[j])
		}
		for _, b := range p.boundaries {
			wu(uint64(b))
		}
		p.fp = fmt.Sprintf("p%dx%d-%016x", msh.Rows(), msh.Cols(), h.Sum64())
	})
	return p.fp
}
