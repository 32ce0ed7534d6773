// Package noc is a flit-level simulator of the paper's evaluation
// network (Table 2): a 2D mesh of canonical 3-stage credit-based
// wormhole routers with virtual channels, XY dimension-order routing and
// look-ahead routing optimization. It substitutes for the Garnet
// simulator used by the paper (see DESIGN.md, substitution 2). The
// mesh is the only simulated topology: the analytic model's torus
// (model.NewTorus) is evaluated analytically, never simulated.
//
// # Timing model
//
// The router microarchitecture is Table 2's, fixed as constants:
// 3-stage routers, single-cycle links, 5-flit buffers and 3 virtual
// channels per protocol class. A flit granted the switch spends one
// cycle in switch traversal, linkLatency cycles on the wire and
// routerLatency-1 cycles in the downstream router's buffer-write and
// VC/switch allocation stages (route computation is folded into the
// previous hop's pipeline, the look-ahead optimization). The simulator
// models those stages as delay alone: the flit enters the downstream
// input buffer linkLatency+routerLatency cycles after its grant, on the
// first cycle it may compete for the switch there, so every buffered
// flit is eligible. An uncontended hop therefore costs exactly
// PerHopLatency cycles.
// Source injection bypasses the source router's pipeline (the NI writes
// directly into the local input stage), and ejection consumes the flit
// at its switch-allocation grant, so an uncontended H-hop single-flit
// packet takes H*PerHopLatency cycles end to end — the exact per-hop
// form of the paper's eq. (2) — and an L-flit packet adds L-1 cycles of
// serialization.
//
// # Simplifications (documented)
//
// Credits are returned instantaneously rather than after a wire delay;
// this only matters within a couple of cycles of saturation, far beyond
// the loads the paper evaluates. Routers arbitrate round-robin. A
// virtual channel is considered free for allocation when it has no
// owner and its buffer has drained.
package noc

import (
	"fmt"

	"obm/internal/mesh"
)

// Class partitions virtual channels by protocol message class to break
// protocol deadlock cycles (requests must not block replies).
type Class int

// Protocol classes used by the CMP traffic model.
const (
	// ClassRequest carries cache and memory request packets.
	ClassRequest Class = iota
	// ClassResponse carries data reply packets.
	ClassResponse

	// numClasses is the number of protocol classes.
	numClasses = 2
)

// Table 2's router microarchitecture.
const (
	// vcsPerClass is the number of virtual channels per protocol class
	// on every input port.
	vcsPerClass = 3
	// numVCs is the number of virtual channels per input port.
	numVCs = vcsPerClass * numClasses
	// bufDepth is the per-VC input buffer depth in flits.
	bufDepth = 5
	// routerLatency is the router pipeline depth in cycles (3-stage).
	routerLatency = 3
	// linkLatency is the wire traversal latency in cycles.
	linkLatency = 1
)

// PerHopLatency is the uncontended per-hop latency in cycles: the
// router pipeline plus the link, td_r + td_w of the paper's eq. (2).
const PerHopLatency = routerLatency + linkLatency

// vcRange returns the half-open VC index range [lo, hi) owned by class
// cl.
func vcRange(cl Class) (lo, hi int) {
	lo = int(cl) * vcsPerClass
	return lo, lo + vcsPerClass
}

// Port identifies one of a router's five ports.
type Port int

// Router ports. Local connects the router to its tile's network
// interface.
const (
	Local Port = iota
	North
	East
	South
	West
	numPorts
)

func (p Port) String() string {
	switch p {
	case Local:
		return "local"
	case North:
		return "north"
	case East:
		return "east"
	case South:
		return "south"
	case West:
		return "west"
	default:
		return fmt.Sprintf("Port(%d)", int(p))
	}
}

// opposite returns the port on the neighbouring router that a flit
// leaving through p arrives on.
func (p Port) opposite() Port {
	switch p {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	default:
		return Local
	}
}

// xyRoute computes the output port for a packet at router cur heading to
// dst under XY dimension-order routing (X/column first).
func xyRoute(m *mesh.Mesh, cur, dst mesh.Tile) Port {
	cc, cd := m.Coord(cur), m.Coord(dst)
	switch {
	case cd.Col > cc.Col:
		return East
	case cd.Col < cc.Col:
		return West
	case cd.Row > cc.Row:
		return South
	case cd.Row < cc.Row:
		return North
	default:
		return Local
	}
}
