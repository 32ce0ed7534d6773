package noc

import (
	"math/bits"

	"obm/internal/mesh"
)

// vcBuffer is one virtual-channel input buffer and its wormhole state.
// The flit queue is a fixed-capacity circular buffer sized by
// Config.BufDepth (credit flow control guarantees it never overflows),
// so steady-state push/pop never allocates, shifts, or grows.
type vcBuffer struct {
	buf  []flit
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
	if v.n == len(v.buf) {
		panic("noc: VC buffer overflow (credit accounting broken)")
	}
	i := v.head + v.n
	if i >= len(v.buf) {
		i -= len(v.buf)
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
	if v.head == len(v.buf) {
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
	in       [numPorts][]vcBuffer
	// occ counts buffered flits across all input VCs; idle routers
	// (occ == 0) skip the per-cycle allocation scans entirely, which is
	// what makes paper-scale loads (~0.25 packets/cycle chip-wide)
	// simulate quickly. portOcc breaks the count down by input port so
	// the allocation scans skip empty ports.
	occ     int
	portOcc [numPorts]int
	// occMask[p] has bit v set when input VC v of port p holds flits,
	// letting gather enumerate occupied VCs with one bit-scan per VC
	// instead of probing every buffer (Config.Validate caps VCs at 64).
	occMask [numPorts]uint64
	// cand is scratch space listing the occupied (port, vc) flattened
	// indices, rebuilt once per cycle so the allocation stages scan only
	// real work instead of every buffer.
	cand []int
	// outReq[p] counts candidate VCs routed toward output port p this
	// cycle and vaNeed[p] flags ports where some ready head still lacks
	// a downstream VC — both rebuilt by routeHeads so the allocation and
	// arbitration stages skip ports nobody is requesting (at paper-scale
	// loads a busy router usually feeds exactly one output).
	outReq [numPorts]uint8
	vaNeed [numPorts]bool
	// vcs and total cache cfg.VCs() and numPorts*vcs.
	vcs, total int
	// queued reports whether this router is on the network's active
	// worklist (set on the first accepted flit, cleared when the
	// worklist compaction sees occ == 0).
	queued bool
	// credits[p][v] is the number of free slots in neighbour(p)'s input
	// VC v (the port facing us). Meaningless for Local.
	credits [numPorts][]int
	// owned[p][v] reports whether we currently hold downstream VC v on
	// output port p for an in-flight packet.
	owned [numPorts][]bool
	// neighbors[p] is the router reached through output port p, nil at
	// mesh edges and for Local.
	neighbors [numPorts]*router
	// saPtr[p] is the round-robin pointer (over input port*VCs+vc) for
	// switch allocation on output port p.
	saPtr [numPorts]int
	// vaPtr[p] is the round-robin pointer for VC allocation on output
	// port p.
	vaPtr [numPorts]int
}

// linkWraps reports whether output port p of this router is a
// wrap-around (dateline) link of its ring.
func (r *router) linkWraps(p Port) bool {
	if !r.n.cfg.Torus {
		return false
	}
	c := r.n.mesh.Coord(r.id)
	switch p {
	case East:
		return c.Col == r.n.cfg.Cols-1
	case West:
		return c.Col == 0
	case South:
		return c.Row == r.n.cfg.Rows-1
	case North:
		return c.Row == 0
	default:
		return false
	}
}

// vcLayerFor returns the dateline layer a packet must use on output
// port p: its current layer while continuing in the same dimension
// (reset on a dimension switch), promoted to the post-dateline layer
// when the link itself crosses the dateline.
func (r *router) vcLayerFor(p Port, pkt *Packet) int {
	layer := 0
	if int8(dimOf(p)) == pkt.curDim {
		layer = int(pkt.layer)
	}
	if r.linkWraps(p) {
		layer = 1
	}
	return layer
}

// allowedVCs returns the downstream VC index range a packet may be
// allocated on output port p: its protocol class's range, halved into
// dateline layers in torus mode.
func (r *router) allowedVCs(p Port, pkt *Packet) (lo, hi int) {
	lo, hi = r.n.cfg.vcRange(pkt.Type.Class())
	if !r.n.cfg.Torus {
		return lo, hi
	}
	mid := lo + (hi-lo)/2
	if r.vcLayerFor(p, pkt) == 0 {
		return lo, mid
	}
	return mid, hi
}

func newRouter(id mesh.Tile, n *Network) *router {
	r := &router{id: id, n: n, row: int(id) / n.cfg.Cols, col: int(id) % n.cfg.Cols}
	vcs := n.cfg.VCs()
	r.vcs = vcs
	r.total = int(numPorts) * vcs
	for p := Port(0); p < numPorts; p++ {
		r.in[p] = make([]vcBuffer, vcs)
		for v := range r.in[p] {
			r.in[p][v].buf = make([]flit, n.cfg.BufDepth)
			r.in[p][v].outPort = -1
			r.in[p][v].outVC = -1
		}
		r.credits[p] = make([]int, vcs)
		r.owned[p] = make([]bool, vcs)
		for v := range r.credits[p] {
			r.credits[p][v] = n.cfg.BufDepth
		}
	}
	return r
}

// accept places a flit arriving over a link (or from the NI) into input
// VC (port, vc), putting the router on the active worklist if idle.
func (r *router) accept(p Port, vc int, f flit) {
	r.in[p][vc].push(f)
	r.occ++
	r.portOcc[p]++
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
	return !r.owned[p][v] && r.credits[p][v] == r.n.cfg.BufDepth
}

// gather rebuilds the occupied-VC candidate list for this cycle by
// scanning the occupancy bitmasks, routes any newly exposed heads (the
// look-ahead route step), and rebuilds the per-output demand counters
// the allocation and arbitration stages use to skip idle ports.
func (r *router) gather(now int64) {
	r.cand = r.cand[:0]
	r.outReq = [numPorts]uint8{}
	r.vaNeed = [numPorts]bool{}
	for p := Port(0); p < numPorts; p++ {
		occ := r.occMask[p]
		if occ == 0 {
			continue
		}
		base := int(p) * r.vcs
		for occ != 0 {
			v := bits.TrailingZeros64(occ)
			occ &= occ - 1
			r.cand = append(r.cand, base+v)
			b := &r.in[p][v]
			f := b.front()
			if !b.routed {
				if !f.isHead() {
					continue
				}
				b.outPort = r.n.cfg.route(r.n.mesh, r.id, f.pkt.Dst)
				b.routed = true
			}
			r.outReq[b.outPort]++
			if b.outVC < 0 && b.outPort != Local && f.isHead() && f.ready <= now {
				r.vaNeed[b.outPort] = true
			}
		}
	}
}

// rotatedScan visits the candidate indices starting at the first one
// >= start (wrapping), calling f until it reports done. This preserves
// the round-robin pointer semantics over the sparse candidate list.
func rotatedScan(cand []int, start int, f func(idx int) (done bool)) {
	for _, idx := range cand {
		if idx >= start && f(idx) {
			return
		}
	}
	for _, idx := range cand {
		if idx < start && f(idx) {
			return
		}
	}
}

// allocateVCs performs VC allocation for head flits that are routed but
// lack a downstream VC; round-robin over requesting input VCs. Ports
// with no pending request (vaNeed, set by routeHeads) are skipped.
func (r *router) allocateVCs(now int64) {
	for p := Port(1); p < numPorts; p++ { // Local needs no VC
		if !r.vaNeed[p] || r.neighbors[p] == nil {
			continue
		}
		rotatedScan(r.cand, r.vaPtr[p], func(idx int) bool {
			inPort := Port(idx / r.vcs)
			inVC := idx % r.vcs
			b := &r.in[inPort][inVC]
			f := b.front()
			if f == nil || !f.isHead() || f.ready > now || !b.routed || b.outPort != p || b.outVC >= 0 {
				return false
			}
			lo, hi := r.allowedVCs(p, f.pkt)
			for v := lo; v < hi; v++ {
				if r.vcFree(p, v) {
					b.outVC = v
					r.owned[p][v] = true
					r.vaPtr[p] = (idx + 1) % r.total
					break
				}
			}
			return false
		})
	}
}

// arbitrate performs switch allocation and traversal for one output
// port: at most one flit crosses per output per cycle and at most one
// leaves each input port (crossbar constraint). inputUsed is shared
// across the router's output ports for the cycle.
func (r *router) arbitrate(now int64, p Port, inputUsed *[numPorts]bool) {
	if r.outReq[p] == 0 {
		return // nobody routed toward this output this cycle
	}
	rotatedScan(r.cand, r.saPtr[p], func(idx int) bool {
		inPort := Port(idx / r.vcs)
		if inputUsed[inPort] {
			return false
		}
		inVC := idx % r.vcs
		b := &r.in[inPort][inVC]
		f := b.front()
		if f == nil || f.ready > now || !b.routed || b.outPort != p {
			return false
		}
		if p == Local {
			// Ejection: consume the flit now. dequeue returns the popped
			// flit by value; the front pointer is invalidated by the pop.
			granted := r.dequeue(inPort, inVC)
			inputUsed[inPort] = true
			r.saPtr[p] = (idx + 1) % r.total
			r.n.eject(now, granted.pkt, granted.seq)
			return true
		}
		if b.outVC < 0 || r.credits[p][b.outVC] == 0 {
			return false // head awaiting VC, or no credit downstream
		}
		outVC := b.outVC
		granted := r.dequeue(inPort, inVC)
		inputUsed[inPort] = true
		r.saPtr[p] = (idx + 1) % r.total
		r.credits[p][outVC]--
		if granted.isTail() {
			r.owned[p][outVC] = false
		}
		r.n.sendFlit(now, r, p, outVC, granted)
		return true
	})
}

// dequeue removes and returns the front flit of input VC (port, vc),
// returns a credit upstream, and resets the VC's wormhole state after a
// tail.
func (r *router) dequeue(p Port, vc int) flit {
	b := &r.in[p][vc]
	f := b.pop()
	r.occ--
	r.portOcc[p]--
	if b.n == 0 {
		r.occMask[p] &^= 1 << uint(vc)
	}
	if p != Local {
		if up := r.neighbors[p]; up != nil {
			r.n.returnCredit(up, p.opposite(), vc)
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

// occupancy returns the number of buffered flits across all input VCs,
// used by the conservation tests.
func (r *router) occupancy() int { return r.occ }
