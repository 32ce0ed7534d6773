package noc

import (
	"testing"
)

// TestDrainDeadlineWithFlitsInRing checks that Drain reports failure
// (rather than hanging or losing events) when its budget expires while
// flits are still sitting in calendar-ring slots: a granted flit spends
// PerHopLatency cycles in the ring, so a one-cycle budget must trip.
func TestDrainDeadlineWithFlitsInRing(t *testing.T) {
	n := MustNew(testMesh())
	if err := n.Inject(&Packet{Src: 0, Dst: 15, Type: CacheRequest, App: -1}); err != nil {
		t.Fatal(err)
	}
	// Step until the head flit is actually in flight on a link.
	for i := 0; i < 3 && n.inFlight == 0; i++ {
		n.Step()
	}
	if n.inFlight == 0 {
		t.Fatal("flit never reached a link")
	}
	if err := n.Drain(1); err == nil {
		t.Fatal("Drain(1) succeeded with flits in flight")
	}
	// The network must still be intact: a generous budget finishes the
	// delivery the failed drain left behind.
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().DeliveredPackets; got != 1 {
		t.Fatalf("DeliveredPackets = %d, want 1", got)
	}
}

// TestRingWrapAround runs the cycle counter far past the calendar-ring
// size before injecting, so every ring index involved has wrapped many
// times; scheduling and delivery must be unaffected.
func TestRingWrapAround(t *testing.T) {
	msh := testMesh()
	n := MustNew(msh)
	if n.arrMask >= 1<<10 {
		t.Fatalf("arrMask = %d; test assumes a small ring", n.arrMask)
	}
	for i := 0; i < 5000; i++ { // >> the ring size
		n.Step()
	}
	start := n.Cycle()
	if err := n.Inject(&Packet{Src: 0, Dst: 15, Type: CacheReply, App: -1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.DeliveredPackets != 1 || st.DeliveredFlits != int64(CacheReply.Flits()) {
		t.Fatalf("delivered %d packets / %d flits, want 1 / %d",
			st.DeliveredPackets, st.DeliveredFlits, CacheReply.Flits())
	}
	// 6 hops on the 4x4 mesh: latency must match the uncontended ideal
	// regardless of how late the run started.
	wantLat := int64(6*PerHopLatency + CacheReply.Flits() - 1)
	if got := st.ByType[CacheReply].LatencySum; got != wantLat {
		t.Fatalf("latency = %d at start cycle %d, want %d", got, start, wantLat)
	}
}

// TestPacketPoolRecycling checks the AllocPacket contract: delivered
// pooled packets come back zeroed on the free list, and callers'
// &Packet{} packets never enter the pool.
func TestPacketPoolRecycling(t *testing.T) {
	n := MustNew(testMesh())
	p := n.AllocPacket()
	p.Src, p.Dst, p.Type, p.App = 0, 15, CacheRequest, -1
	if err := n.Inject(p); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	if len(n.pool) != 1 {
		t.Fatalf("pool holds %d packets after delivery, want 1", len(n.pool))
	}
	q := n.AllocPacket()
	if q != p {
		t.Error("AllocPacket did not reuse the recycled packet")
	}
	if q.ID != 0 || q.Src != 0 || q.Dst != 0 || q.Hops != 0 {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}

	n2 := MustNew(testMesh())
	manual := &Packet{Src: 0, Dst: 15, Type: CacheRequest, App: -1}
	if err := n2.Inject(manual); err != nil {
		t.Fatal(err)
	}
	if err := n2.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	if len(n2.pool) != 0 {
		t.Fatal("caller-owned packet was captured by the pool")
	}
	if manual.Latency() <= 0 {
		t.Fatal("caller-owned packet lost its delivery record")
	}
}

// TestVCBufferWrap streams back-to-back multi-flit packets along one
// path, so 40 flits pass through each bufDepth-flit circular buffer
// and it wraps repeatedly; flit conservation and in-order delivery must
// hold.
func TestVCBufferWrap(t *testing.T) {
	n := MustNew(testMesh())
	var order []uint64
	n.SetDeliveryHandler(func(p *Packet) { order = append(order, p.ID) })
	const packets = 8
	for i := 0; i < packets; i++ {
		if err := n.Inject(&Packet{Src: 1, Dst: 14, Type: CacheReply, App: -1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Drain(50_000); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.DeliveredFlits != int64(packets*CacheReply.Flits()) {
		t.Fatalf("DeliveredFlits = %d, want %d", st.DeliveredFlits, packets*CacheReply.Flits())
	}
	if len(order) != packets {
		t.Fatalf("delivered %d packets, want %d", len(order), packets)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("same-flow packets reordered: %v", order)
		}
	}
	if got := bufferedFlits(n); got != 0 {
		t.Fatalf("%d flits buffered after drain, want 0", got)
	}
}

// bufferedFlits counts the flits held in router input buffers,
// independently of the worklists Busy consults.
func bufferedFlits(n *Network) int {
	var o int
	for _, r := range n.routers {
		o += r.occ
	}
	return o
}

// TestStatsSnapshotIndependence checks Network.Stats deep-copies the
// histogram storage: a snapshot's percentiles must not move when the
// simulation keeps running.
func TestStatsSnapshotIndependence(t *testing.T) {
	n := MustNew(testMesh())
	inject := func() {
		if err := n.Inject(&Packet{Src: 0, Dst: 15, Type: CacheRequest, App: 0}); err != nil {
			t.Fatal(err)
		}
		if err := n.Drain(10_000); err != nil {
			t.Fatal(err)
		}
	}
	inject()
	snap := n.Stats()
	before := snap.AppPercentile(0, 99)
	count := snap.HistByApp[0].Count()
	for i := 0; i < 50; i++ {
		inject()
	}
	if got := snap.AppPercentile(0, 99); got != before {
		t.Fatalf("snapshot percentile moved: %v -> %v", before, got)
	}
	if got := snap.HistByApp[0].Count(); got != count {
		t.Fatalf("snapshot histogram count moved: %d -> %d", count, got)
	}
	if live := n.Stats().HistByApp[0].Count(); live != count+50 {
		t.Fatalf("live histogram count = %d, want %d", live, count+50)
	}
}
