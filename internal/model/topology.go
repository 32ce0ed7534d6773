package model

import (
	"fmt"

	"obm/internal/mesh"
)

// Topology selects the interconnect shape the latency model assumes.
// The flit-level simulator (internal/noc) runs only the mesh.
type Topology int

// Topologies.
const (
	// TopologyMesh is the paper's 2D mesh.
	TopologyMesh Topology = iota
	// TopologyTorus adds wrap-around links in both dimensions. A torus
	// is vertex-transitive, so TC(k) becomes constant — the cache-side
	// imbalance the paper balances disappears by construction, leaving
	// only the memory-controller component. The topology experiment
	// quantifies this.
	TopologyTorus
)

func (t Topology) String() string {
	switch t {
	case TopologyMesh:
		return "mesh"
	case TopologyTorus:
		return "torus"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// NewTorus builds the latency model for a torus interconnect with the
// given controller placement: eqs. (3) and (4) with wrapped distances.
func NewTorus(m *mesh.Mesh, p Params, pl Placement) (*LatencyModel, error) {
	if m == nil {
		return nil, fmt.Errorf("model: nil mesh")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(m); err != nil {
		return nil, err
	}
	n := m.NumTiles()
	lm := &LatencyModel{
		mesh:      m,
		params:    p,
		placement: pl,
		topology:  TopologyTorus,
		tc:        make([]float64, n),
		tm:        make([]float64, n),
	}
	perHop := p.PerHop()
	remoteFrac := float64(n-1) / float64(n)
	for t := 0; t < n; t++ {
		tile := mesh.Tile(t)
		lm.tc[t] = m.AvgTorusHopsToAll(tile)*perHop + p.TdS*remoteFrac
		_, hops := pl.NearestBy(m, tile, m.TorusHops)
		if hops == 0 {
			lm.tm[t] = 0
		} else {
			lm.tm[t] = float64(hops)*perHop + p.TdS
		}
	}
	return lm, nil
}
