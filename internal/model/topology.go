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
	return build(m, p, pl, TopologyTorus)
}
