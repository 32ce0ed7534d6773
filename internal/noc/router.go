package noc

import (
	"math/bits"

	"obm/internal/mesh"
)

// vcBuffer is one virtual-channel input buffer and its wormhole state.
// The flit queue is a fixed-capacity circular buffer of bufDepth flits
// (credit flow control guarantees it never overflows), so push/pop
// never allocates, shifts, or grows.
type vcBuffer struct {
	buf  [bufDepth]flit
	head int
	n    int
	// outPort is the routed output port of the packet currently flowing
	// through this VC; -1 until that packet's head reaches the front.
	outPort Port
	// outVC is the downstream VC allocated to that packet; -1 until VC
	// allocation succeeds (and meaningless for Local ejection).
	outVC int
}

func (v *vcBuffer) empty() bool { return v.n == 0 }

func (v *vcBuffer) front() *flit {
	if v.n == 0 {
		return nil
	}
	return &v.buf[v.head]
}

func (v *vcBuffer) push(f flit) {
	if v.n == bufDepth {
		panic("noc: VC buffer overflow (credit accounting broken)")
	}
	i := v.head + v.n
	if i >= bufDepth {
		i -= bufDepth
	}
	v.buf[i] = f
	v.n++
}

func (v *vcBuffer) pop() flit {
	f := v.buf[v.head]
	// Drop the packet reference so the recycled slot cannot alias a
	// pooled packet's next life.
	v.buf[v.head].pkt = nil
	v.head++
	if v.head == bufDepth {
		v.head = 0
	}
	v.n--
	return f
}

// router is one mesh router: five input ports of VCs, per-output credit
// and ownership tracking toward each neighbour, and round-robin
// arbitration state.
//
// Input VC (port, vc) has the flattened index port*numVCs+vc, so one
// uint64 holds a bit for each of the totalVCs input VCs.
type router struct {
	id mesh.Tile
	n  *Network
	// row, col cache the mesh coordinates the worklist bitmaps are keyed
	// by.
	row, col int
	in       [numPorts][numVCs]vcBuffer
	// occ counts buffered flits across all input VCs. The router is on
	// the network's active worklist exactly while occ > 0 (accept adds
	// it, dequeue removes it), so idle routers cost nothing per cycle,
	// which is what makes paper-scale loads (~0.25 packets/cycle
	// chip-wide) simulate quickly.
	occ int
	// req[out] has the bit of every non-empty input VC whose front flit
	// is routed toward output out, and vaReq[out] is the subset whose
	// front is a head still lacking a downstream VC (never set for
	// Local). Both are kept exact at the events that change a front —
	// accept into an empty VC, dequeue, VC allocation — so VC
	// allocation and switch arbitration visit only the VCs that request
	// each output, and skip an output whose word is zero.
	req, vaReq [numPorts]uint64
	// credits[p][v] is the number of free slots in neighbour(p)'s input
	// VC v (the port facing us). Meaningless for Local.
	credits [numPorts][numVCs]int
	// owned[p][v] reports whether we currently hold downstream VC v on
	// output port p for an in-flight packet.
	owned [numPorts][numVCs]bool
	// neighbors[p] is the router reached through output port p, nil at
	// mesh edges and for Local.
	neighbors [numPorts]*router
	// saPtr[p] is the round-robin pointer (a flattened input VC index)
	// for switch allocation on output port p.
	saPtr [numPorts]int
	// vaPtr[p] is the round-robin pointer for VC allocation on output
	// port p.
	vaPtr [numPorts]int
}

// totalVCs is the size of the flattened (input port, VC) index space
// that the request words and round-robin pointers cover.
const totalVCs = int(numPorts) * numVCs

// portVCs is the request-word mask of input port 0's VCs; shifted by
// port*numVCs it covers any one input port.
const portVCs = uint64(1)<<numVCs - 1

func newRouter(id mesh.Tile, n *Network) *router {
	r := &router{id: id, n: n, row: int(id) / n.mesh.Cols(), col: int(id) % n.mesh.Cols()}
	for p := Port(0); p < numPorts; p++ {
		for v := 0; v < numVCs; v++ {
			r.in[p][v].outPort = -1
			r.in[p][v].outVC = -1
			r.credits[p][v] = bufDepth
		}
	}
	return r
}

// accept places a flit arriving over a link (or from the NI) into input
// VC (port, vc), putting the router on the active worklist if idle. A
// flit entering an empty VC becomes its front and starts requesting.
func (r *router) accept(p Port, vc int, f flit) {
	b := &r.in[p][vc]
	b.push(f)
	if r.occ == 0 {
		r.n.actR.add(r.row, r.col)
	}
	r.occ++
	if b.n == 1 {
		r.expose(p, vc)
	}
}

// expose records the new front flit of input VC (port, vc) in the
// request words: a head is routed (the look-ahead route step) and, bound
// for a neighbour, requests a downstream VC; every front requests its
// output. Flits enter a buffer only once they are eligible for the
// switch (see Network.sendFlit), so every front flit is a requester.
func (r *router) expose(p Port, vc int) {
	b := &r.in[p][vc]
	bit := uint64(1) << (int(p)*numVCs + vc)
	if f := b.front(); f.isHead() {
		b.outPort = xyRoute(r.n.mesh, r.id, f.pkt.Dst)
		if b.outPort != Local {
			r.vaReq[b.outPort] |= bit
		}
	}
	r.req[b.outPort] |= bit
}

// vcFree reports whether downstream VC v on output port p can be
// allocated to a new packet: nobody owns it and its buffer has fully
// drained (all credits returned).
func (r *router) vcFree(p Port, v int) bool {
	return !r.owned[p][v] && r.credits[p][v] == bufDepth
}

// rrSplit splits request word m at round-robin pointer ptr: walking
// from's bits and then wrap's bits, each in ascending order, visits the
// requesters in ascending flattened index order from ptr, wrapping once.
func rrSplit(m uint64, ptr int) (from, wrap uint64) {
	below := uint64(1)<<uint(ptr) - 1
	return m &^ below, m & below
}

// allocateVCs performs VC allocation for the heads requesting a
// downstream VC; round-robin over the requesting input VCs of each
// output port.
func (r *router) allocateVCs() {
	for p := North; p < numPorts; p++ { // never Local: it needs no VC
		if r.vaReq[p] == 0 || r.neighbors[p] == nil {
			continue
		}
		from, wrap := rrSplit(r.vaReq[p], r.vaPtr[p])
		for _, m := range [2]uint64{from, wrap} {
			for m != 0 {
				idx := bits.TrailingZeros64(m)
				m &= m - 1
				b := &r.in[idx/numVCs][idx%numVCs]
				lo, hi := vcRange(b.front().pkt.Type.Class())
				for v := lo; v < hi; v++ {
					if r.vcFree(p, v) {
						b.outVC = v
						r.owned[p][v] = true
						r.vaReq[p] &^= 1 << idx
						r.vaPtr[p] = (idx + 1) % totalVCs
						break
					}
				}
			}
		}
	}
}

// arbitrate performs switch allocation and traversal for one output
// port: at most one flit crosses per output per cycle and at most one
// leaves each input port (crossbar constraint). used holds the request
// bits of the input ports already granted this cycle, shared across the
// router's output ports; arbitrate returns it updated.
func (r *router) arbitrate(now int64, p Port, used uint64) uint64 {
	from, wrap := rrSplit(r.req[p]&^used, r.saPtr[p])
	for _, m := range [2]uint64{from, wrap} {
		for m != 0 {
			idx := bits.TrailingZeros64(m)
			m &= m - 1
			inPort, inVC := Port(idx/numVCs), idx%numVCs
			b := &r.in[inPort][inVC]
			if p != Local && (b.outVC < 0 || r.credits[p][b.outVC] == 0) {
				continue // head awaiting VC, or no credit downstream
			}
			outVC := b.outVC
			// dequeue returns the popped flit by value and resets the
			// VC's wormhole state after a tail. It may change the
			// request bits of inPort, which used masks out from here on.
			granted := r.dequeue(inPort, inVC)
			used |= portVCs << (int(inPort) * numVCs)
			r.saPtr[p] = (idx + 1) % totalVCs
			if p == Local {
				r.n.eject(now, granted.pkt, granted.seq)
				return used
			}
			r.credits[p][outVC]--
			if granted.isTail() {
				r.owned[p][outVC] = false
			}
			r.n.sendFlit(now, r, p, outVC, granted)
			return used
		}
	}
	return used
}

// dequeue removes and returns the front flit of input VC (port, vc),
// returns a credit upstream, and keeps the request words and worklist
// exact: the VC stops requesting when it empties or its tail leaves,
// and its wormhole state resets after a tail.
func (r *router) dequeue(p Port, vc int) flit {
	b := &r.in[p][vc]
	f := b.pop()
	r.occ--
	if r.occ == 0 {
		r.n.actR.clear(r.row, r.col)
	}
	if p != Local {
		// Credits return instantaneously (see the package doc).
		if up := r.neighbors[p]; up != nil {
			up.credits[p.opposite()][vc]++
		}
	} else {
		r.n.nis[r.id].creditReturn(vc)
	}
	tail := f.isTail()
	if tail || b.n == 0 {
		r.req[b.outPort] &^= 1 << (int(p)*numVCs + vc)
	}
	if tail {
		b.outPort = -1
		b.outVC = -1
		if b.n > 0 {
			r.expose(p, vc)
		}
	}
	return f
}
