package noc

import (
	"obm/internal/mesh"
)

// ni is a tile's network interface: an unbounded packet queue feeding
// the router's local input port at one flit per cycle. Injection
// bypasses the source router pipeline (flits are immediately eligible
// for switch allocation), which calibrates the uncontended end-to-end
// latency to exactly hops*(router+link) — see the package comment.
//
// The queue pops by advancing a head index instead of shifting, and the
// backing array is recycled whenever the queue fully drains, so
// steady-state injection does not allocate or copy.
type ni struct {
	tile mesh.Tile
	n    *Network
	// row, col cache the mesh coordinates for the worklist bitmaps.
	row, col int
	queue    []*Packet
	qhead    int
	// queued reports whether this NI is on the network's active
	// worklist (set on enqueue, cleared when the backlog drains).
	queued bool
	// cur is the packet currently being serialized into the router.
	cur     *Packet
	curFlit int
	curVC   int
	// space[v] is the free slot count of the router's local input VC v.
	space [numVCs]int
	// owned[v] reports whether an in-flight packet holds local VC v.
	owned [numVCs]bool
}

func newNI(tile mesh.Tile, n *Network) *ni {
	q := &ni{
		tile: tile, n: n,
		row: int(tile) / n.mesh.Cols(), col: int(tile) % n.mesh.Cols(),
		curVC: -1,
	}
	for v := range q.space {
		q.space[v] = bufDepth
	}
	return q
}

// enqueue adds a packet to the injection queue, putting the NI on the
// active worklist if idle.
func (q *ni) enqueue(p *Packet) {
	q.queue = append(q.queue, p)
	if !q.queued {
		q.queued = true
		q.n.markNIActive(q)
	}
}

// creditReturn is called by the local router when it drains a flit from
// local input VC v.
func (q *ni) creditReturn(v int) {
	q.space[v]++
}

// vcFree mirrors router.vcFree for the local port.
func (q *ni) vcFree(v int) bool {
	return !q.owned[v] && q.space[v] == bufDepth
}

// inject writes up to one flit into the local router this cycle.
func (q *ni) inject(now int64) {
	if q.cur == nil {
		if q.qhead == len(q.queue) {
			return
		}
		head := q.queue[q.qhead]
		lo, hi := vcRange(head.Type.Class())
		vc := -1
		for v := lo; v < hi; v++ {
			if q.vcFree(v) {
				vc = v
				break
			}
		}
		if vc < 0 {
			return // all local VCs of this class busy
		}
		q.queue[q.qhead] = nil
		q.qhead++
		if q.qhead == len(q.queue) {
			q.queue = q.queue[:0]
			q.qhead = 0
		}
		q.cur = head
		q.curFlit = 0
		q.curVC = vc
		q.owned[vc] = true
	}
	if q.space[q.curVC] == 0 {
		return // local buffer full; retry next cycle
	}
	f := flit{pkt: q.cur, seq: q.curFlit}
	q.n.routers[q.tile].accept(Local, q.curVC, f)
	q.space[q.curVC]--
	q.curFlit++
	if q.curFlit == q.cur.Type.Flits() {
		q.owned[q.curVC] = false
		q.cur = nil
		q.curVC = -1
	}
}

// pending returns the number of packets not yet fully injected.
func (q *ni) pending() int {
	n := len(q.queue) - q.qhead
	if q.cur != nil {
		n++
	}
	return n
}
