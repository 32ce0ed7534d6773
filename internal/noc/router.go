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
	// through this VC; -1 when idle.
	outPort Port
	// outVC is the downstream VC allocated to that packet; -1 until VC
	// allocation succeeds (and meaningless for Local ejection).
	outVC int
	// routed reports whether outPort is valid.
	routed bool
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
type router struct {
	id mesh.Tile
	n  *Network
	// row, col cache the mesh coordinates the worklist bitmaps are keyed
	// by.
	row, col int
	in       [numPorts][numVCs]vcBuffer
	// occ counts buffered flits across all input VCs; idle routers
	// (occ == 0) skip the per-cycle allocation scans entirely, which is
	// what makes paper-scale loads (~0.25 packets/cycle chip-wide)
	// simulate quickly.
	occ int
	// occMask[p] has bit v set when input VC v of port p holds flits,
	// letting gather enumerate occupied VCs with one bit-scan per VC
	// instead of probing every buffer.
	occMask [numPorts]uint64
	// req[out][in] has bit v set when input VC (in, v) holds a routed
	// front flit toward output out, and vaReq[out][in] is the subset of
	// those that are heads still lacking a downstream VC (never set for
	// Local). gather rebuilds both once per cycle, so VC allocation and
	// switch arbitration visit only the VCs that request their output
	// instead of every occupied one (at paper-scale loads a busy router
	// usually feeds exactly one output).
	req   [numPorts][numPorts]uint64
	vaReq [numPorts][numPorts]uint64
	// reqOuts and vaOuts have bit out set when req[out] (vaReq[out])
	// holds any request, so the stages skip idle outputs and gather
	// clears only the rows it filled last time.
	reqOuts, vaOuts uint8
	// queued reports whether this router is on the network's active
	// worklist (set on the first accepted flit, cleared when the
	// worklist compaction sees occ == 0).
	queued bool
	// credits[p][v] is the number of free slots in neighbour(p)'s input
	// VC v (the port facing us). Meaningless for Local.
	credits [numPorts][numVCs]int
	// owned[p][v] reports whether we currently hold downstream VC v on
	// output port p for an in-flight packet.
	owned [numPorts][numVCs]bool
	// neighbors[p] is the router reached through output port p, nil at
	// mesh edges and for Local.
	neighbors [numPorts]*router
	// saPtr[p] is the round-robin pointer (over input port*numVCs+vc) for
	// switch allocation on output port p.
	saPtr [numPorts]int
	// vaPtr[p] is the round-robin pointer for VC allocation on output
	// port p.
	vaPtr [numPorts]int
}

// totalVCs is the size of the flattened (input port, VC) index space
// that the round-robin pointers walk.
const totalVCs = int(numPorts) * numVCs

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
// VC (port, vc), putting the router on the active worklist if idle.
func (r *router) accept(p Port, vc int, f flit) {
	r.in[p][vc].push(f)
	r.occ++
	r.occMask[p] |= 1 << uint(vc)
	if !r.queued {
		r.queued = true
		r.n.markRouterActive(r)
	}
}

// vcFree reports whether downstream VC v on output port p can be
// allocated to a new packet: nobody owns it and its buffer has fully
// drained (all credits returned).
func (r *router) vcFree(p Port, v int) bool {
	return !r.owned[p][v] && r.credits[p][v] == bufDepth
}

// gather routes any newly exposed heads (the look-ahead route step) and
// rebuilds the per-output request masks for this cycle by scanning the
// occupancy bitmasks. Flits enter a buffer only once they are eligible
// for the switch (see Network.sendFlit), so every routed front flit
// requests its output.
func (r *router) gather() {
	for o := r.reqOuts; o != 0; o &= o - 1 {
		out := bits.TrailingZeros8(o)
		r.req[out] = [numPorts]uint64{}
		r.vaReq[out] = [numPorts]uint64{}
	}
	r.reqOuts, r.vaOuts = 0, 0
	for p := Port(0); p < numPorts; p++ {
		occ := r.occMask[p]
		for occ != 0 {
			v := bits.TrailingZeros64(occ)
			occ &= occ - 1
			b := &r.in[p][v]
			f := b.front()
			if !b.routed {
				if !f.isHead() {
					continue
				}
				b.outPort = xyRoute(r.n.mesh, r.id, f.pkt.Dst)
				b.routed = true
			}
			bit := uint64(1) << uint(v)
			r.req[b.outPort][p] |= bit
			r.reqOuts |= 1 << uint(b.outPort)
			if b.outVC < 0 && b.outPort != Local && f.isHead() {
				r.vaReq[b.outPort][p] |= bit
				r.vaOuts |= 1 << uint(b.outPort)
			}
		}
	}
}

// rotatedBits returns step k (0 <= k <= numPorts) of the round-robin
// walk over one output's per-input request masks, starting at the
// flattened index sp*numVCs+sv: step 0 is port sp from VC sv upward, steps
// 1..numPorts-1 are the following ports whole (wrapping), and step
// numPorts is port sp below sv. Walking each step's bits in ascending
// order visits the requesters in ascending flattened (port, VC) index
// order from the pointer, wrapping once.
func rotatedBits(masks *[numPorts]uint64, sp, sv, k int) (Port, uint64) {
	in := sp + k
	if in >= int(numPorts) {
		in -= int(numPorts)
	}
	m := masks[in]
	switch k {
	case 0:
		m &= ^uint64(0) << uint(sv)
	case int(numPorts):
		m &= uint64(1)<<uint(sv) - 1
	}
	return Port(in), m
}

// allocateVCs performs VC allocation for the head flits gather found
// routed but lacking a downstream VC; round-robin over the requesting
// input VCs of each output port.
func (r *router) allocateVCs() {
	for o := r.vaOuts; o != 0; o &= o - 1 { // never Local: it needs no VC
		p := Port(bits.TrailingZeros8(o))
		if r.neighbors[p] == nil {
			continue
		}
		sp, sv := r.vaPtr[p]/numVCs, r.vaPtr[p]%numVCs
		for k := 0; k <= int(numPorts); k++ {
			inPort, m := rotatedBits(&r.vaReq[p], sp, sv, k)
			for m != 0 {
				inVC := bits.TrailingZeros64(m)
				m &= m - 1
				b := &r.in[inPort][inVC]
				lo, hi := vcRange(b.front().pkt.Type.Class())
				for v := lo; v < hi; v++ {
					if r.vcFree(p, v) {
						b.outVC = v
						r.owned[p][v] = true
						r.vaPtr[p] = (int(inPort)*numVCs + inVC + 1) % totalVCs
						break
					}
				}
			}
		}
	}
}

// arbitrate performs switch allocation and traversal for one output
// port: at most one flit crosses per output per cycle and at most one
// leaves each input port (crossbar constraint). inputUsed is shared
// across the router's output ports for the cycle.
func (r *router) arbitrate(now int64, p Port, inputUsed *[numPorts]bool) {
	sp, sv := r.saPtr[p]/numVCs, r.saPtr[p]%numVCs
	for k := 0; k <= int(numPorts); k++ {
		inPort, m := rotatedBits(&r.req[p], sp, sv, k)
		if inputUsed[inPort] {
			continue
		}
		for m != 0 {
			inVC := bits.TrailingZeros64(m)
			m &= m - 1
			b := &r.in[inPort][inVC]
			if p != Local && (b.outVC < 0 || r.credits[p][b.outVC] == 0) {
				continue // head awaiting VC, or no credit downstream
			}
			outVC := b.outVC
			// dequeue returns the popped flit by value and resets the
			// VC's wormhole state after a tail.
			granted := r.dequeue(inPort, inVC)
			inputUsed[inPort] = true
			r.saPtr[p] = (int(inPort)*numVCs + inVC + 1) % totalVCs
			if p == Local {
				r.n.eject(now, granted.pkt, granted.seq)
				return
			}
			r.credits[p][outVC]--
			if granted.isTail() {
				r.owned[p][outVC] = false
			}
			r.n.sendFlit(now, r, p, outVC, granted)
			return
		}
	}
}

// dequeue removes and returns the front flit of input VC (port, vc),
// returns a credit upstream, and resets the VC's wormhole state after a
// tail.
func (r *router) dequeue(p Port, vc int) flit {
	b := &r.in[p][vc]
	f := b.pop()
	r.occ--
	if b.n == 0 {
		r.occMask[p] &^= 1 << uint(vc)
	}
	if p != Local {
		// Credits return instantaneously (see the package doc).
		if up := r.neighbors[p]; up != nil {
			up.credits[p.opposite()][vc]++
		}
	} else {
		r.n.nis[r.id].creditReturn(vc)
	}
	if f.isTail() {
		b.outPort = -1
		b.outVC = -1
		b.routed = false
	}
	return f
}
