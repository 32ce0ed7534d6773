// Package model implements the analytic on-chip packet-latency model of
// Section II.C of the paper: the per-tile average latency of shared-L2
// cache traffic, TC(k), and of memory-controller traffic, TM(k), on a
// mesh-based CMP.
//
// The service latency of a packet from tile k to tile k' is (eq. 2)
//
//	TD_k(k') = H_k(k') * (td_r + td_w + td_q) + td_s
//
// where H is the XY-routing hop count, td_r/td_w/td_q are the per-hop
// router, wire and average queuing latencies, and td_s is the
// serialization latency. A packet whose destination equals its source
// needs no network traversal and incurs no serialization latency.
//
// Because L2 banks are address-interleaved uniformly over all N tiles,
// the cache-traffic latency of tile k averages TD over all destinations:
//
//	TC(k) = avgHops(k) * perHop + td_s * (N-1)/N
//
// The (N-1)/N factor is the probability that the hashed bank is remote;
// the paper's Figure 5 worked example (4x4 mesh, td_r=3, td_w=1, td_s=1,
// APLs 10.3375 and 11.5375 cycles) pins this form down exactly, and the
// unit tests reproduce those numbers digit-for-digit.
//
// Memory-controller traffic goes to the nearest of the four corner
// controllers (proximity principle, eq. 4):
//
//	TM(k) = HM(k) * perHop + td_s   (td_s dropped when HM(k)=0)
//
// The HM(k)=0 case (a corner tile talking to its own controller) is not
// specified by the paper; we treat it like the local-bank case since no
// network communication occurs. This is a documented assumption.
package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"obm/internal/mesh"
)

// Params holds the latency-model cycle parameters of eq. (2).
type Params struct {
	// TdR is the per-hop router pipeline latency in cycles (the paper
	// evaluates a canonical 3-stage router, so TdR = 3).
	TdR float64
	// TdW is the per-hop link/wire traversal latency in cycles.
	TdW float64
	// TdQ is the average per-hop queuing latency in cycles. The paper
	// observes 0..1 cycles at the loads evaluated.
	TdQ float64
	// TdS is the average serialization latency in cycles: packet length
	// over channel bandwidth, averaged over the packet mix (single-flit
	// 16-bit-payload requests and 5-flit 64-byte data replies on
	// 128-bit links).
	TdS float64
}

// PerHop returns the total per-hop latency td_r + td_w + td_q.
func (p Params) PerHop() float64 { return p.TdR + p.TdW + p.TdQ }

// Validate reports an error if any parameter is negative, NaN or
// infinite.
func (p Params) Validate() error {
	if !latency(p.TdR) || !latency(p.TdW) || !latency(p.TdQ) || !latency(p.TdS) {
		return fmt.Errorf("model: negative or non-finite latency parameter: %+v", p)
	}
	return nil
}

// latency reports whether x is a valid latency: finite and not
// negative (x >= 0 is false for NaN).
func latency(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// DefaultParams returns the cycle parameters used for the paper's 8x8
// evaluation platform (Table 2): a 3-stage wormhole router (td_r = 3),
// single-cycle links (td_w = 1), near-empty queues (td_q = 0), and an
// average serialization latency of 2.75 cycles for the mix of 1-flit
// requests and 5-flit replies measured by our flit-level simulator.
// td_r + td_w is the simulator's noc.PerHopLatency, which
// TestPerHopLatencyMatchesModel (internal/sim) checks. These defaults
// put the random-mapping global APL at ~22.6 cycles, matching Table 1.
func DefaultParams() Params {
	return Params{TdR: 3, TdW: 1, TdQ: 0, TdS: 2.75}
}

// Figure5Params returns the parameters of the paper's Figure 5 worked
// example (td_r = 3, td_w = 1, td_s = 1, zero queuing).
func Figure5Params() Params {
	return Params{TdR: 3, TdW: 1, TdQ: 0, TdS: 1}
}

// LatencyModel precomputes the TC and TM arrays for a mesh and parameter
// set. It is immutable after construction and safe for concurrent use.
type LatencyModel struct {
	mesh      *mesh.Mesh
	params    Params
	placement Placement
	topology  Topology
	tc        []float64
	tm        []float64
	byTC      []mesh.Tile // tiles ascending by (TC, index); see TilesByTC
}

// New builds the latency model for m with parameters p and the paper's
// corner memory-controller placement.
func New(m *mesh.Mesh, p Params) (*LatencyModel, error) {
	if m == nil {
		return nil, fmt.Errorf("model: nil mesh")
	}
	return NewWithPlacement(m, p, CornersPlacement(m))
}

// NewWithPlacement builds the latency model with an explicit
// memory-controller placement; TM(k) becomes the latency to the nearest
// controller of that placement (proximity principle), generalizing
// eq. (4).
func NewWithPlacement(m *mesh.Mesh, p Params, pl Placement) (*LatencyModel, error) {
	return build(m, p, pl, TopologyMesh)
}

// build evaluates eqs. (3) and (4) for every tile of m under topo's
// hop metric: XY mesh distances, or wrapped distances on a torus.
func build(m *mesh.Mesh, p Params, pl Placement, topo Topology) (*LatencyModel, error) {
	if m == nil {
		return nil, fmt.Errorf("model: nil mesh")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(m); err != nil {
		return nil, err
	}
	avgHops, hops := m.AvgHopsToAll, m.Hops
	if topo == TopologyTorus {
		avgHops, hops = m.AvgTorusHopsToAll, m.TorusHops
	}
	n := m.NumTiles()
	lm := &LatencyModel{
		mesh:      m,
		params:    p,
		placement: pl,
		topology:  topo,
		tc:        make([]float64, n),
		tm:        make([]float64, n),
	}
	perHop := p.PerHop()
	remoteFrac := float64(n-1) / float64(n)
	for t := 0; t < n; t++ {
		tile := mesh.Tile(t)
		lm.tc[t] = avgHops(tile)*perHop + p.TdS*remoteFrac
		_, h := pl.NearestBy(m, tile, hops)
		if h == 0 {
			lm.tm[t] = 0
		} else {
			lm.tm[t] = float64(h)*perHop + p.TdS
		}
	}
	lm.byTC = tilesByTC(lm.tc)
	return lm, nil
}

// NewTable builds a latency model from explicit per-tile TC and TM
// arrays instead of the mesh-geometry formulas. This is how the
// NP-completeness reduction of Section III.C instantiates arbitrary
// instances (TC(k) = s_k from a set-partition input), and it lets users
// model irregular chips whose latencies come from measurement rather
// than the analytic model.
func NewTable(m *mesh.Mesh, p Params, tc, tm []float64) (*LatencyModel, error) {
	if m == nil {
		return nil, fmt.Errorf("model: nil mesh")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := m.NumTiles()
	if len(tc) != n || len(tm) != n {
		return nil, fmt.Errorf("model: table lengths %d/%d for %d tiles", len(tc), len(tm), n)
	}
	for i := 0; i < n; i++ {
		if !latency(tc[i]) || !latency(tm[i]) {
			return nil, fmt.Errorf("model: negative or non-finite latency in table at tile %d", i)
		}
	}
	return &LatencyModel{
		mesh:      m,
		params:    p,
		placement: CornersPlacement(m),
		tc:        append([]float64(nil), tc...),
		tm:        append([]float64(nil), tm...),
		byTC:      tilesByTC(tc),
	}, nil
}

// tilesByTC orders the tiles ascending by TC, ties (mesh symmetry) to
// the lower index. It is the one tile order of the repository: SSS
// sorts by it, and the streaming placements seed and fill from it.
func tilesByTC(tc []float64) []mesh.Tile {
	order := make([]mesh.Tile, len(tc))
	for i := range order {
		order[i] = mesh.Tile(i)
	}
	slices.SortFunc(order, func(a, b mesh.Tile) int {
		return cmp.Or(cmp.Compare(tc[a], tc[b]), cmp.Compare(a, b))
	})
	return order
}

// MustNew is New but panics on error.
func MustNew(m *mesh.Mesh, p Params) *LatencyModel {
	lm, err := New(m, p)
	if err != nil {
		panic(err)
	}
	return lm
}

// Mesh returns the mesh the model was built for.
func (lm *LatencyModel) Mesh() *mesh.Mesh { return lm.mesh }

// Params returns the cycle parameters of the model.
func (lm *LatencyModel) Params() Params { return lm.params }

// Placement returns the memory-controller placement the model was built
// with.
func (lm *LatencyModel) Placement() Placement { return lm.placement }

// Topology returns the interconnect topology the model assumes.
func (lm *LatencyModel) Topology() Topology { return lm.topology }

// NumTiles returns the number of tiles N.
func (lm *LatencyModel) NumTiles() int { return lm.mesh.NumTiles() }

// TC returns the average on-chip latency (cycles) of shared-cache traffic
// originating at tile t.
func (lm *LatencyModel) TC(t mesh.Tile) float64 { return lm.tc[t] }

// TM returns the average on-chip latency (cycles) of memory-controller
// traffic originating at tile t.
func (lm *LatencyModel) TM(t mesh.Tile) float64 { return lm.tm[t] }

// TilesByTC returns every tile ascending by TC, ties to the lower
// index. The slice is shared by every caller: it must not be modified.
func (lm *LatencyModel) TilesByTC() []mesh.Tile { return lm.byTC }

// TCArray returns a copy of the TC array indexed by tile.
func (lm *LatencyModel) TCArray() []float64 {
	out := make([]float64, len(lm.tc))
	copy(out, lm.tc)
	return out
}

// TMArray returns a copy of the TM array indexed by tile.
func (lm *LatencyModel) TMArray() []float64 {
	out := make([]float64, len(lm.tm))
	copy(out, lm.tm)
	return out
}

// TD returns the point-to-point service latency of a single packet from
// src to dst (eq. 2), with no serialization cost when src == dst.
func (lm *LatencyModel) TD(src, dst mesh.Tile) float64 {
	if src == dst {
		return 0
	}
	h := float64(lm.mesh.Hops(src, dst))
	return h*lm.params.PerHop() + lm.params.TdS
}

// Cost returns the assignment cost of placing a thread with cache request
// rate c and memory request rate m on tile t (eq. 13):
// c*TC(t) + m*TM(t).
func (lm *LatencyModel) Cost(c, m float64, t mesh.Tile) float64 {
	return c*lm.tc[t] + m*lm.tm[t]
}
