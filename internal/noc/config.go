// Package noc is a flit-level simulator of the paper's evaluation
// network (Table 2): a 2D mesh of canonical 3-stage credit-based
// wormhole routers with virtual channels, XY dimension-order routing and
// look-ahead routing optimization. It substitutes for the Garnet
// simulator used by the paper (see DESIGN.md, substitution 2).
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

// Config holds the microarchitectural parameters of the network.
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
	// Routing selects the dimension order (default RoutingXY, the
	// paper's choice).
	Routing Routing
	// Torus adds wrap-around links in both dimensions. Deadlock freedom
	// on the rings uses dateline virtual-channel layers, so torus mode
	// requires VCsPerClass >= 2 (the class's VCs split into a
	// pre-dateline and a post-dateline layer).
	Torus bool
	// CreditDelay is the wire delay in cycles before a freed buffer slot
	// becomes visible upstream. 0 models instantaneous credits (the
	// documented default simplification); realistic routers see 1-2
	// cycles, which only matters near saturation.
	CreditDelay int
}

// Routing selects the deterministic dimension-order variant. Both are
// minimal and deadlock-free on a mesh with class-partitioned VCs.
type Routing int

// Routing algorithms.
const (
	// RoutingXY resolves the X (column) dimension first — the paper's
	// dimension-order routing.
	RoutingXY Routing = iota
	// RoutingYX resolves the Y (row) dimension first.
	RoutingYX
)

func (r Routing) String() string {
	switch r {
	case RoutingXY:
		return "XY"
	case RoutingYX:
		return "YX"
	default:
		return fmt.Sprintf("Routing(%d)", int(r))
	}
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
	case c.Routing != RoutingXY && c.Routing != RoutingYX:
		return fmt.Errorf("noc: unknown routing %d", int(c.Routing))
	case c.Torus && c.VCsPerClass < 2:
		return fmt.Errorf("noc: torus needs >= 2 VCs per class for dateline layers, got %d", c.VCsPerClass)
	case c.Torus && (c.Rows < 2 || c.Cols < 2):
		return fmt.Errorf("noc: torus needs both dimensions >= 2, got %dx%d", c.Rows, c.Cols)
	case c.CreditDelay < 0:
		return fmt.Errorf("noc: negative credit delay %d", c.CreditDelay)
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

// yxRoute resolves the row dimension first.
func yxRoute(m *mesh.Mesh, cur, dst mesh.Tile) Port {
	cc, cd := m.Coord(cur), m.Coord(dst)
	switch {
	case cd.Row > cc.Row:
		return South
	case cd.Row < cc.Row:
		return North
	case cd.Col > cc.Col:
		return East
	case cd.Col < cc.Col:
		return West
	default:
		return Local
	}
}

// route dispatches on the configured algorithm and topology.
func (c Config) route(m *mesh.Mesh, cur, dst mesh.Tile) Port {
	if c.Torus {
		return torusRoute(m, cur, dst, c.Routing == RoutingYX)
	}
	if c.Routing == RoutingYX {
		return yxRoute(m, cur, dst)
	}
	return xyRoute(m, cur, dst)
}

// torusDir picks the direction along one ring: the shorter way around,
// ties to the positive direction (deterministic minimal routing).
// Returns 0 when already aligned, +1 for the positive direction, -1 for
// the negative.
func torusDir(cur, dst, size int) int {
	if cur == dst {
		return 0
	}
	forward := ((dst - cur) + size) % size
	backward := size - forward
	if forward <= backward {
		return 1
	}
	return -1
}

// torusRoute is dimension-order routing on the torus: resolve one
// dimension completely (shorter way around its ring), then the other.
func torusRoute(m *mesh.Mesh, cur, dst mesh.Tile, yxOrder bool) Port {
	cc, cd := m.Coord(cur), m.Coord(dst)
	colPort := func() Port {
		switch torusDir(cc.Col, cd.Col, m.Cols()) {
		case 1:
			return East
		case -1:
			return West
		}
		return Local
	}
	rowPort := func() Port {
		switch torusDir(cc.Row, cd.Row, m.Rows()) {
		case 1:
			return South
		case -1:
			return North
		}
		return Local
	}
	first, second := colPort, rowPort
	if yxOrder {
		first, second = rowPort, colPort
	}
	if p := first(); p != Local {
		return p
	}
	return second()
}

// dimOf returns the dimension a port moves in: 0 for X (E/W), 1 for Y
// (N/S), -1 for Local.
func dimOf(p Port) int {
	switch p {
	case East, West:
		return 0
	case North, South:
		return 1
	default:
		return -1
	}
}
