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
// A flit granted the switch spends one cycle in switch traversal,
// LinkLatency cycles on the wire and RouterLatency-1 cycles in the
// downstream router's buffer-write and VC/switch allocation stages
// (route computation is folded into the previous hop's pipeline, the
// look-ahead optimization). The simulator models those stages as delay
// alone: the flit enters the downstream input buffer
// LinkLatency+RouterLatency cycles after its grant, on the first cycle
// it may compete for the switch there, so every buffered flit is
// eligible. An uncontended hop therefore costs exactly
// RouterLatency + LinkLatency cycles.
// Source injection bypasses the source router's pipeline (the NI writes
// directly into the local input stage), and ejection consumes the flit
// at its switch-allocation grant, so an uncontended H-hop single-flit
// packet takes H*(RouterLatency+LinkLatency) cycles end to end — the
// exact per-hop form of the paper's eq. (2) — and an L-flit packet adds
// L-1 cycles of serialization.
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
	// ClassCoherence carries forwarding/invalidation traffic.
	ClassCoherence

	// NumClasses is the number of protocol classes.
	NumClasses = 3
)

// Config holds the microarchitectural parameters of the network. The
// topology and routing are fixed to the paper's: a 2D mesh without
// wrap-around links, XY dimension-order routing and instantaneous
// credit return.
type Config struct {
	// Rows and Cols give the mesh dimensions.
	Rows, Cols int
	// VCsPerClass is the number of virtual channels per protocol class on
	// every input port (Table 2: 3 VCs per protocol class).
	VCsPerClass int
	// BufDepth is the per-VC input buffer depth in flits (Table 2: 5).
	BufDepth int
	// RouterLatency is the router pipeline depth in cycles (Table 2:
	// 3-stage).
	RouterLatency int
	// LinkLatency is the wire traversal latency in cycles.
	LinkLatency int
}

// DefaultConfig returns the paper's Table 2 network: 8x8 mesh, 3-stage
// routers, 5-flit buffers, 3 VCs per class, single-cycle links.
func DefaultConfig() Config {
	return Config{
		Rows:          8,
		Cols:          8,
		VCsPerClass:   3,
		BufDepth:      5,
		RouterLatency: 3,
		LinkLatency:   1,
	}
}

// Validate reports an error for configurations the simulator cannot run.
func (c Config) Validate() error {
	switch {
	case c.Rows <= 0 || c.Cols <= 0:
		return fmt.Errorf("noc: invalid mesh %dx%d", c.Rows, c.Cols)
	case c.VCsPerClass <= 0:
		return fmt.Errorf("noc: need at least one VC per class, got %d", c.VCsPerClass)
	case c.VCsPerClass*int(NumClasses) > 64:
		// The router tracks per-port VC occupancy in a 64-bit mask.
		return fmt.Errorf("noc: at most 64 VCs per port, got %d", c.VCsPerClass*int(NumClasses))
	case c.BufDepth <= 0:
		return fmt.Errorf("noc: need positive buffer depth, got %d", c.BufDepth)
	case c.RouterLatency < 1:
		return fmt.Errorf("noc: router latency must be >= 1, got %d", c.RouterLatency)
	case c.LinkLatency < 1:
		return fmt.Errorf("noc: link latency must be >= 1, got %d", c.LinkLatency)
	}
	return nil
}

// VCs returns the total number of virtual channels per input port.
func (c Config) VCs() int { return c.VCsPerClass * int(NumClasses) }

// PerHopLatency returns the uncontended per-hop latency in cycles.
func (c Config) PerHopLatency() int { return c.RouterLatency + c.LinkLatency }

// vcRange returns the half-open VC index range [lo, hi) owned by class
// cl.
func (c Config) vcRange(cl Class) (lo, hi int) {
	lo = int(cl) * c.VCsPerClass
	return lo, lo + c.VCsPerClass
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
