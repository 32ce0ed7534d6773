package noc

import (
	"fmt"

	"obm/internal/mesh"
)

// arrival is a flit on a link or in the downstream router's pipeline,
// not yet in its input buffer.
type arrival struct {
	router *router
	port   Port
	vc     int
	f      flit
}

// Network is the whole on-chip network: routers, links, NIs, and the
// cycle loop. It is not safe for concurrent use; drive it from one
// goroutine (experiments parallelize across Network instances instead —
// see sim.RunReplicas — the idiomatic share-nothing decomposition for
// simulators).
//
// The cycle loop is engineered to be allocation-free in steady state:
// future link arrivals live in a fixed-size calendar-queue ring (the
// delay is a small constant of Table 2's router, so a power-of-two ring
// indexed by cycle&mask replaces the old map[int64][]arrival with its
// per-cycle bucket churn), flit queues are fixed-capacity circular
// buffers, and Step visits only routers and NIs on the active worklists
// instead of scanning every tile.
type Network struct {
	mesh    *mesh.Mesh
	routers []*router
	nis     []*ni
	cycle   int64
	nextID  uint64
	stats   Stats

	// arrRing is the calendar queue of link arrivals: slot cycle&arrMask
	// holds the flits entering input buffers that cycle. Slot backing
	// slices are recycled (reset to length zero after processing), so
	// steady-state scheduling never allocates.
	arrRing [][]arrival
	arrMask int64
	// inFlight counts the flits in arrRing: on a link or in the
	// downstream router's pipeline, granted but not yet buffered.
	inFlight int

	// actR tracks routers with buffered flits and actNI tracks tiles
	// whose NI has injection backlog, as per-row bitmaps. Step sweeps
	// these instead of every tile, which is what makes paper-scale loads
	// (~0.25 packets/cycle chip-wide) cheap: almost all of a large mesh
	// is idle almost all of the time. actR is exact: a router is on it
	// exactly while it buffers flits. Bitmap iteration is ascending by
	// construction, preserving the exact router-iteration order of the
	// old sorted worklists, keeping fixed-seed runs bit-identical (see
	// TestGoldenDeterminism). actScratch is the per-cycle active-router
	// id list the step's phases share.
	actR       *rowWorklist
	actNI      *rowWorklist
	actScratch []int32

	// pool recycles delivered packets handed out by AllocPacket, so a
	// long simulation reaches a high-water mark of live packets and then
	// stops allocating.
	pool []*Packet

	// flushed tracks what has already been exported to the obs registry
	// (see metrics.go); maxInFlight is the high-water mark of inFlight,
	// maintained with a plain compare on the flit-send path and exported
	// at flush time.
	flushed struct {
		cycles, injectedFlits, deliveredFlits int64
	}
	maxInFlight int

	// onDeliver, when set, runs for every delivered packet (tail eject).
	onDeliver func(*Packet)
}

// ringSize returns the smallest power of two > delay, so that a slot is
// always drained before an event is scheduled into it again.
func ringSize(delay int) int64 {
	s := int64(1)
	for s <= int64(delay) {
		s <<= 1
	}
	return s
}

// New builds Table 2's network on mesh m.
func New(m *mesh.Mesh) (*Network, error) {
	if m == nil {
		return nil, fmt.Errorf("noc: nil mesh")
	}
	n := &Network{mesh: m}
	// Link arrivals land linkLatency+routerLatency cycles after the
	// grant (see sendFlit).
	n.arrMask = ringSize(linkLatency+routerLatency) - 1
	n.arrRing = make([][]arrival, n.arrMask+1)
	n.routers = make([]*router, m.NumTiles())
	n.nis = make([]*ni, m.NumTiles())
	n.actR = newRowWorklist(m.Rows(), m.Cols())
	n.actNI = newRowWorklist(m.Rows(), m.Cols())
	n.actScratch = make([]int32, 0, m.NumTiles())
	// Link-utilization counters are allocated eagerly rather than
	// lazily on first send, which keeps the nil check off the sendFlit
	// hot path and gives every Stats snapshot a full tiles x ports
	// matrix, all-zero for zero-traffic runs.
	n.stats.LinkFlits = make([][]int64, m.NumTiles())
	for i := range n.stats.LinkFlits {
		n.stats.LinkFlits[i] = make([]int64, int(numPorts))
	}
	for _, t := range m.Tiles() {
		n.routers[t] = newRouter(t, n)
		n.nis[t] = newNI(t, n)
	}
	mNetworks.Inc()
	// Wire up neighbours; edge routers have no link off the mesh.
	for _, t := range m.Tiles() {
		c := m.Coord(t)
		r := n.routers[t]
		if c.Row > 0 {
			r.neighbors[North] = n.routers[m.TileAt(c.Row-1, c.Col)]
		}
		if c.Row < m.Rows()-1 {
			r.neighbors[South] = n.routers[m.TileAt(c.Row+1, c.Col)]
		}
		if c.Col > 0 {
			r.neighbors[West] = n.routers[m.TileAt(c.Row, c.Col-1)]
		}
		if c.Col < m.Cols()-1 {
			r.neighbors[East] = n.routers[m.TileAt(c.Row, c.Col+1)]
		}
	}
	return n, nil
}

// MustNew is New but panics on error.
func MustNew(m *mesh.Mesh) *Network {
	n, err := New(m)
	if err != nil {
		panic(err)
	}
	return n
}

// Mesh returns the network's mesh geometry.
func (n *Network) Mesh() *mesh.Mesh { return n.mesh }

// Cycle returns the current simulation time.
func (n *Network) Cycle() int64 { return n.cycle }

// Stats returns a snapshot of the accumulated statistics. Every nested
// container — per-type and per-app slices, link flit counts, and
// histogram bucket storage — is deep-copied, so the snapshot stays
// frozen while the simulation continues. Taking a snapshot also
// flushes the counter deltas since the previous one to the process
// metrics registry (obs) — the hot loop itself never pays for metrics.
func (n *Network) Stats() Stats {
	n.flushMetrics()
	s := n.stats
	s.Cycles = n.cycle
	s.ByApp = append([]TypeStats(nil), n.stats.ByApp...)
	s.HistByApp = make([]Histogram, len(n.stats.HistByApp))
	for i := range n.stats.HistByApp {
		s.HistByApp[i] = n.stats.HistByApp[i].Clone()
	}
	s.LinkFlits = make([][]int64, len(n.stats.LinkFlits))
	for i, row := range n.stats.LinkFlits {
		s.LinkFlits[i] = append([]int64(nil), row...)
	}
	return s
}

// SetDeliveryHandler registers f to run whenever a packet's tail flit
// leaves the network (including zero-hop local deliveries). Traffic
// generators use it to issue replies.
func (n *Network) SetDeliveryHandler(f func(*Packet)) { n.onDeliver = f }

// AllocPacket returns a zeroed packet from the network's free list (or
// a fresh one). Packets obtained here are automatically recycled after
// delivery — the moment the delivery handler returns, the pointer is
// dead and must not be retained or re-injected by the caller. Traffic
// generators that inject millions of packets use this to keep the hot
// loop allocation-free; callers that hold on to packets after delivery
// must build them with &Packet{} instead.
func (n *Network) AllocPacket() *Packet {
	if k := len(n.pool); k > 0 {
		p := n.pool[k-1]
		n.pool = n.pool[:k-1]
		return p
	}
	return &Packet{pooled: true}
}

// Inject submits a packet for delivery. Src and Dst must be valid
// tiles; ID and InjectCycle are assigned here. A packet whose source
// equals its destination involves no network communication (paper
// Section II.C) and is delivered immediately with zero latency.
func (n *Network) Inject(p *Packet) error {
	if p == nil {
		return fmt.Errorf("noc: nil packet")
	}
	if !n.mesh.Contains(p.Src) || !n.mesh.Contains(p.Dst) {
		return fmt.Errorf("noc: packet %v -> %v outside %v", p.Src, p.Dst, n.mesh)
	}
	if p.Type < 0 || p.Type >= numPacketTypes {
		return fmt.Errorf("noc: unknown packet type %d", int(p.Type))
	}
	p.ID = n.nextID
	n.nextID++
	p.InjectCycle = n.cycle
	n.stats.InjectedPackets++
	n.stats.InjectedFlits += int64(p.Type.Flits())
	if p.Src == p.Dst {
		n.stats.LocalDeliveries++
		n.deliver(n.cycle, p)
		return nil
	}
	n.nis[p.Src].enqueue(p)
	return nil
}

// markNIActive adds tile q's NI to the active bitmap.
func (n *Network) markNIActive(q *ni) {
	n.actNI.add(q.row, q.col)
}

// Step advances the simulation by one cycle.
func (n *Network) Step() {
	now := n.cycle
	// 1. Link arrivals scheduled for this cycle enter input buffers. The
	// ring slot was drained the last time this cycle index came around,
	// so it holds exactly this cycle's arrivals; resetting its length
	// recycles the backing array.
	if n.inFlight > 0 {
		slot := &n.arrRing[now&n.arrMask]
		for _, a := range *slot {
			a.router.accept(a.port, a.vc, a.f)
		}
		n.inFlight -= len(*slot)
		*slot = (*slot)[:0]
	}
	// 2. NIs with backlog inject, in ascending tile order; drained NIs
	// drop off the worklist.
	if n.actNI.total() > 0 {
		for row := 0; row < n.mesh.Rows(); row++ {
			if n.actNI.rowCount(row) == 0 {
				continue
			}
			n.actScratch = n.actNI.appendRow(n.actScratch[:0], row)
			for _, t := range n.actScratch {
				q := n.nis[t]
				q.inject(now)
				if q.pending() == 0 {
					q.queued = false
					n.actNI.clear(q.row, q.col)
				}
			}
		}
	}
	if n.actR.total() == 0 {
		n.cycle++
		return
	}
	// The busy routers, in ascending id order, are shared by the two
	// phases below via the scratch list: a router that drains in phase 4
	// leaves the worklist but finishes the cycle.
	act := n.actScratch[:0]
	for row := 0; row < n.mesh.Rows(); row++ {
		if n.actR.rowCount(row) != 0 {
			act = n.actR.appendRow(act, row)
		}
	}
	n.actScratch = act
	// 3. VC allocation. Heads were routed when they reached the front of
	// their VC, and the request words are already exact, so each router
	// walks only the VCs that request each output.
	for _, id := range act {
		n.routers[id].allocateVCs()
	}
	// 4. Switch allocation and traversal, outputs in ascending port
	// order.
	for _, id := range act {
		r := n.routers[id]
		var used uint64
		for p := Port(0); p < numPorts; p++ {
			if r.req[p] != 0 {
				used = r.arbitrate(now, p, used)
			}
		}
	}
	n.cycle++
}

// sendFlit puts a granted flit on the wire toward r's neighbour through
// output port p, into downstream VC outVC.
func (n *Network) sendFlit(now int64, r *router, p Port, outVC int, f flit) {
	dest := r.neighbors[p]
	if dest == nil {
		panic(fmt.Sprintf("noc: flit routed off the mesh at tile %d port %v", r.id, p))
	}
	// Switch traversal this cycle, linkLatency cycles on the wire and
	// routerLatency-1 cycles in the downstream pipeline (buffer write
	// plus VC/switch allocation): the flit enters the downstream buffer
	// on the first cycle it may compete for the switch there, so every
	// buffered flit is eligible and an idle router whose flits are all
	// still in the pipeline stays off the worklist.
	arr := now + linkLatency + routerLatency
	// LinkFlits rows are indexed by the sending router; the matrix is
	// allocated eagerly in New, so no nil check is needed.
	n.stats.LinkFlits[r.id][p]++
	if f.isHead() {
		f.pkt.Hops++
	}
	slot := arr & n.arrMask
	n.stats.FlitHops++
	n.arrRing[slot] = append(n.arrRing[slot], arrival{router: dest, port: p.opposite(), vc: outVC, f: f})
	n.inFlight++
	if n.inFlight > n.maxInFlight {
		n.maxInFlight = n.inFlight
	}
}

// eject consumes a flit at its destination's local port.
func (n *Network) eject(now int64, p *Packet, seq int) {
	n.stats.DeliveredFlits++
	if seq == p.Type.Flits()-1 {
		n.deliver(now, p)
	}
}

// deliver finalizes a packet: records statistics, runs the handler, and
// recycles pool-allocated packets.
func (n *Network) deliver(now int64, p *Packet) {
	p.EjectCycle = now
	if p.Src == p.Dst {
		n.stats.DeliveredFlits += int64(p.Type.Flits())
	}
	n.stats.DeliveredPackets++
	lat := p.Latency()
	ideal := int64(p.Hops*PerHopLatency + p.Type.Flits() - 1)
	if p.Src == p.Dst {
		ideal = 0
	}
	n.stats.QueuingSum += lat - ideal
	ts := &n.stats.ByType[p.Type]
	ts.Packets++
	ts.LatencySum += lat
	ts.HopSum += int64(p.Hops)
	if p.App >= 0 {
		as := n.stats.appStats(p.App)
		as.Packets++
		as.LatencySum += lat
		as.HopSum += int64(p.Hops)
		n.stats.HistByApp[p.App].Add(lat)
	}
	if n.onDeliver != nil {
		n.onDeliver(p)
	}
	if p.pooled {
		*p = Packet{pooled: true}
		n.pool = append(n.pool, p)
	}
}

// Busy reports whether any packet is queued, in a buffer, or on a link
// or in a router pipeline on its way to one. The worklists make this
// O(busy tiles) rather than O(tiles).
func (n *Network) Busy() bool {
	if n.inFlight > 0 {
		return true
	}
	if n.actNI.anyID(func(id int32) bool { return n.nis[id].pending() > 0 }) {
		return true
	}
	return n.actR.total() > 0
}

// Drain steps the network until it is empty or maxCycles additional
// cycles have elapsed, and returns an error in the latter case (which
// would indicate a routing deadlock or livelock — XY routing with
// class-partitioned VCs should never produce one).
func (n *Network) Drain(maxCycles int64) error {
	deadline := n.cycle + maxCycles
	for n.Busy() {
		if n.cycle >= deadline {
			return fmt.Errorf("noc: network failed to drain within %d cycles (%d flits in flight)", maxCycles, n.inFlight)
		}
		n.Step()
	}
	return nil
}
