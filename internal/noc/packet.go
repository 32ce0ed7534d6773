package noc

import (
	"fmt"

	"obm/internal/mesh"
)

// PacketType labels the CMP traffic kind a packet carries; it selects
// the protocol class and feeds the per-type statistics.
type PacketType int

// CMP packet types (Section II.B of the paper): the requests and
// replies of the shared-cache and memory-controller transactions.
const (
	// CacheRequest is a core's request to a shared L2 bank (single flit:
	// address only).
	CacheRequest PacketType = iota
	// CacheReply carries a 64-byte data block from an L2 bank back to the
	// requesting core (head flit + 4 data flits).
	CacheReply
	// MemRequest is a request forwarded to a memory controller tile
	// (single flit).
	MemRequest
	// MemReply carries data returned by a memory controller (5 flits).
	MemReply

	// numPacketTypes is the number of packet types.
	numPacketTypes = iota
)

func (t PacketType) String() string {
	switch t {
	case CacheRequest:
		return "cache-request"
	case CacheReply:
		return "cache-reply"
	case MemRequest:
		return "mem-request"
	case MemReply:
		return "mem-reply"
	default:
		return fmt.Sprintf("PacketType(%d)", int(t))
	}
}

// Class returns the protocol class that carries this packet type.
func (t PacketType) Class() Class {
	switch t {
	case CacheReply, MemReply:
		return ClassResponse
	default:
		return ClassRequest
	}
}

// Flits returns the packet length in flits for this type under the
// paper's format: 128-bit links, 16-bit short packets in one flit,
// 64-byte data plus a head flit in five flits.
func (t PacketType) Flits() int {
	switch t {
	case CacheReply, MemReply:
		return 5
	default:
		return 1
	}
}

// Packet is one network packet.
type Packet struct {
	// ID is unique within a Network instance.
	ID uint64
	// Src and Dst are the source and destination tiles.
	Src, Dst mesh.Tile
	// Type determines length and class.
	Type PacketType
	// App tags the application (0-based) that caused the packet, for the
	// per-application latency statistics; -1 if not attributed.
	App int
	// InjectCycle is when the packet entered its source NI queue.
	InjectCycle int64
	// EjectCycle is when the tail flit left the network (set on delivery).
	EjectCycle int64
	// Hops counts traversed links (set as the head advances).
	Hops int

	// pooled marks packets handed out by Network.AllocPacket; they are
	// recycled onto the free list as soon as delivery completes.
	pooled bool
}

// Latency returns the packet's measured network latency in cycles.
func (p *Packet) Latency() int64 { return p.EjectCycle - p.InjectCycle }

// flit is one flow-control unit of a packet.
type flit struct {
	pkt *Packet
	// seq is the flit index within the packet; 0 is the head.
	seq int
}

func (f flit) isHead() bool { return f.seq == 0 }
func (f flit) isTail() bool { return f.seq == f.pkt.Type.Flits()-1 }
