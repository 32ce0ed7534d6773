package noc

import (
	"testing"

	"obm/internal/mesh"
	"obm/internal/stats"
)

func testMesh() *mesh.Mesh { return mesh.MustNew(4, 4) }

func TestNewRejectsNilMesh(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil mesh accepted")
	}
}

func TestConfigDerived(t *testing.T) {
	if numVCs != 6 {
		t.Errorf("numVCs = %d, want 6 (2 classes x 3)", numVCs)
	}
	if PerHopLatency != 4 {
		t.Errorf("PerHopLatency = %d, want 4", PerHopLatency)
	}
	lo, hi := vcRange(ClassResponse)
	if lo != 3 || hi != 6 {
		t.Errorf("response vcRange = [%d,%d), want [3,6)", lo, hi)
	}
}

func TestPortOpposite(t *testing.T) {
	cases := map[Port]Port{North: South, South: North, East: West, West: East, Local: Local}
	for p, want := range cases {
		if got := p.opposite(); got != want {
			t.Errorf("%v.opposite() = %v, want %v", p, got, want)
		}
		if p.String() == "" {
			t.Error("empty port name")
		}
	}
}

func TestXYRoute(t *testing.T) {
	m := mesh.MustNew(4, 4)
	cases := []struct {
		cur, dst mesh.Tile
		want     Port
	}{
		{m.TileAt(1, 1), m.TileAt(1, 1), Local},
		{m.TileAt(1, 1), m.TileAt(1, 3), East},
		{m.TileAt(1, 1), m.TileAt(1, 0), West},
		{m.TileAt(1, 1), m.TileAt(3, 1), South},
		{m.TileAt(1, 1), m.TileAt(0, 1), North},
		// X before Y: destination south-east goes East first.
		{m.TileAt(1, 1), m.TileAt(3, 3), East},
		{m.TileAt(1, 1), m.TileAt(0, 0), West},
	}
	for _, c := range cases {
		if got := xyRoute(m, c.cur, c.dst); got != c.want {
			t.Errorf("xyRoute(%v,%v) = %v, want %v", c.cur, c.dst, got, c.want)
		}
	}
}

func TestPacketTypeProperties(t *testing.T) {
	for pt := PacketType(0); pt < numPacketTypes; pt++ {
		if pt.Flits() < 1 {
			t.Errorf("%v has %d flits", pt, pt.Flits())
		}
		if pt.String() == "" {
			t.Errorf("%v has empty name", pt)
		}
		if cl := pt.Class(); cl < 0 || cl >= numClasses {
			t.Errorf("%v class %d out of range", pt, cl)
		}
	}
	if CacheReply.Flits() != 5 || MemReply.Flits() != 5 {
		t.Error("data replies should be 5 flits (64B + head on 128-bit links)")
	}
	if CacheRequest.Flits() != 1 || MemRequest.Flits() != 1 {
		t.Error("short packets should be single-flit")
	}
	if CacheRequest.Class() == CacheReply.Class() {
		t.Error("requests and replies must use different protocol classes")
	}
}

// TestUncontendedLatencyMatchesModel is the calibration contract: an
// isolated packet's latency must equal hops*PerHopLatency + (flits-1).
func TestUncontendedLatencyMatchesModel(t *testing.T) {
	m := testMesh()
	for _, pt := range []PacketType{CacheRequest, CacheReply} {
		for _, dst := range []mesh.Tile{m.TileAt(0, 1), m.TileAt(0, 3), m.TileAt(3, 3), m.TileAt(2, 0)} {
			n := MustNew(m)
			var delivered *Packet
			n.SetDeliveryHandler(func(p *Packet) { delivered = p })
			src := m.TileAt(0, 0)
			if err := n.Inject(&Packet{Src: src, Dst: dst, Type: pt, App: 0}); err != nil {
				t.Fatal(err)
			}
			if err := n.Drain(10000); err != nil {
				t.Fatal(err)
			}
			if delivered == nil {
				t.Fatalf("%v to %v: not delivered", pt, dst)
			}
			hops := m.Hops(src, dst)
			want := int64(hops*PerHopLatency + pt.Flits() - 1)
			if got := delivered.Latency(); got != want {
				t.Errorf("%v to %v (%d hops): latency %d, want %d", pt, dst, hops, got, want)
			}
			if delivered.Hops != hops {
				t.Errorf("%v to %v: counted %d hops, want %d", pt, dst, delivered.Hops, hops)
			}
		}
	}
}

func TestLocalDeliveryZeroLatency(t *testing.T) {
	n := MustNew(testMesh())
	var delivered *Packet
	n.SetDeliveryHandler(func(p *Packet) { delivered = p })
	if err := n.Inject(&Packet{Src: 5, Dst: 5, Type: CacheRequest, App: 0}); err != nil {
		t.Fatal(err)
	}
	if delivered == nil {
		t.Fatal("local packet not delivered immediately")
	}
	if delivered.Latency() != 0 || delivered.Hops != 0 {
		t.Errorf("local delivery latency=%d hops=%d, want 0/0", delivered.Latency(), delivered.Hops)
	}
	st := n.Stats()
	if st.LocalDeliveries != 1 {
		t.Errorf("LocalDeliveries = %d", st.LocalDeliveries)
	}
}

func TestInjectValidation(t *testing.T) {
	n := MustNew(testMesh())
	if err := n.Inject(nil); err == nil {
		t.Error("nil packet accepted")
	}
	if err := n.Inject(&Packet{Src: -1, Dst: 3, Type: CacheRequest}); err == nil {
		t.Error("bad src accepted")
	}
	if err := n.Inject(&Packet{Src: 0, Dst: 99, Type: CacheRequest}); err == nil {
		t.Error("bad dst accepted")
	}
	if err := n.Inject(&Packet{Src: 0, Dst: 3, Type: PacketType(42)}); err == nil {
		t.Error("bad type accepted")
	}
}

// TestFlitConservation: everything injected is eventually delivered,
// and no flits remain anywhere.
func TestFlitConservation(t *testing.T) {
	msh := testMesh()
	n := MustNew(msh)
	rng := stats.NewRand(42)
	types := []PacketType{CacheRequest, CacheReply, MemRequest, MemReply}
	const packets = 500
	for i := 0; i < packets; i++ {
		src := mesh.Tile(rng.Intn(16))
		dst := mesh.Tile(rng.Intn(16))
		pt := types[rng.Intn(len(types))]
		if err := n.Inject(&Packet{Src: src, Dst: dst, Type: pt, App: rng.Intn(4)}); err != nil {
			t.Fatal(err)
		}
		// Interleave injection with simulation to create contention.
		if i%3 == 0 {
			n.Step()
		}
	}
	if err := n.Drain(100000); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.InjectedPackets != packets || st.DeliveredPackets != packets {
		t.Errorf("packets: injected %d delivered %d, want %d", st.InjectedPackets, st.DeliveredPackets, packets)
	}
	if st.InjectedFlits != st.DeliveredFlits {
		t.Errorf("flits: injected %d delivered %d", st.InjectedFlits, st.DeliveredFlits)
	}
	if bufferedFlits(n) != 0 || n.Busy() {
		t.Error("network not empty after drain")
	}
}

// TestContentionOnlyAddsLatency: with many packets, every measured
// latency is at least the uncontended ideal.
func TestContentionOnlyAddsLatency(t *testing.T) {
	m := testMesh()
	n := MustNew(m)
	short := 0
	n.SetDeliveryHandler(func(p *Packet) {
		ideal := int64(m.Hops(p.Src, p.Dst)*PerHopLatency + p.Type.Flits() - 1)
		if p.Src == p.Dst {
			ideal = 0
		}
		if p.Latency() < ideal {
			short++
		}
	})
	rng := stats.NewRand(7)
	for i := 0; i < 300; i++ {
		n.Inject(&Packet{
			Src:  mesh.Tile(rng.Intn(16)),
			Dst:  mesh.Tile(rng.Intn(16)),
			Type: CacheReply,
			App:  0,
		})
	}
	if err := n.Drain(100000); err != nil {
		t.Fatal(err)
	}
	if short > 0 {
		t.Errorf("%d packets beat the speed of light", short)
	}
	st := n.Stats()
	if st.QueuingSum < 0 {
		t.Errorf("negative total queuing %d", st.QueuingSum)
	}
}

// TestHotspotContention: all tiles hammering one destination must still
// drain, with positive queuing delay (the arbiter serializes them).
func TestHotspotContention(t *testing.T) {
	msh := testMesh()
	n := MustNew(msh)
	dst := mesh.Tile(5)
	for round := 0; round < 10; round++ {
		for s := 0; s < 16; s++ {
			if mesh.Tile(s) == dst {
				continue
			}
			n.Inject(&Packet{Src: mesh.Tile(s), Dst: dst, Type: CacheRequest, App: 0})
		}
		n.Step()
	}
	if err := n.Drain(100000); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.QueuingSum <= 0 {
		t.Error("hotspot traffic should experience queuing")
	}
	if st.DeliveredPackets != 150 {
		t.Errorf("delivered %d, want 150", st.DeliveredPackets)
	}
}

func TestStatsPerApp(t *testing.T) {
	n := MustNew(testMesh())
	n.Inject(&Packet{Src: 0, Dst: 3, Type: CacheRequest, App: 1})
	n.Inject(&Packet{Src: 0, Dst: 12, Type: CacheRequest, App: 0})
	n.Inject(&Packet{Src: 1, Dst: 2, Type: CacheRequest, App: -1}) // unattributed
	if err := n.Drain(10000); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if len(st.ByApp) != 2 {
		t.Fatalf("ByApp has %d entries, want 2", len(st.ByApp))
	}
	if st.ByApp[0].Packets != 1 || st.ByApp[1].Packets != 1 {
		t.Error("per-app packet counts wrong")
	}
	if st.AppAPL(0) <= 0 || st.AppAPL(1) <= 0 {
		t.Error("per-app APL should be positive")
	}
	if st.AppAPL(7) != 0 || st.AppAPL(-1) != 0 {
		t.Error("out-of-range app should give APL 0")
	}
}

func TestTypeStatsAverages(t *testing.T) {
	ts := TypeStats{Packets: 4, LatencySum: 40, HopSum: 8}
	if ts.AvgLatency() != 10 {
		t.Error("TypeStats averages wrong")
	}
	var zero TypeStats
	if zero.AvgLatency() != 0 {
		t.Error("zero TypeStats should average 0")
	}
}

// TestSerializationThroughput: a stream of packets between one pair is
// limited by the bottleneck link to roughly one flit per cycle.
func TestSerializationThroughput(t *testing.T) {
	msh := testMesh()
	n := MustNew(msh)
	const packets = 50
	for i := 0; i < packets; i++ {
		n.Inject(&Packet{Src: 0, Dst: 3, Type: CacheReply, App: 0})
	}
	if err := n.Drain(100000); err != nil {
		t.Fatal(err)
	}
	cycles := n.Cycle()
	// 50 packets x 5 flits over one path: at 1 flit/cycle the stream
	// needs at least 250 cycles and should finish within a small factor.
	if cycles < 250 {
		t.Errorf("finished impossibly fast: %d cycles for 250 flits over one link", cycles)
	}
	if cycles > 1000 {
		t.Errorf("throughput collapse: %d cycles for 250 flits", cycles)
	}
}

// TestVCClassIsolation: response-class packets keep flowing when the
// request class is congested (protocol deadlock avoidance).
func TestVCClassIsolation(t *testing.T) {
	n := MustNew(testMesh())
	// Saturate request VCs along row 0.
	for i := 0; i < 60; i++ {
		n.Inject(&Packet{Src: 0, Dst: 3, Type: CacheRequest, App: 0})
	}
	// A response along the same path.
	n.Inject(&Packet{Src: 0, Dst: 3, Type: CacheReply, App: 0})
	if err := n.Drain(100000); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.DeliveredPackets != 61 {
		t.Errorf("delivered %d, want 61", st.DeliveredPackets)
	}
}

// TestDeterminism: two identical simulations produce identical stats.
func TestNetworkDeterminism(t *testing.T) {
	run := func() Stats {
		n := MustNew(testMesh())
		rng := stats.NewRand(99)
		for i := 0; i < 200; i++ {
			n.Inject(&Packet{
				Src:  mesh.Tile(rng.Intn(16)),
				Dst:  mesh.Tile(rng.Intn(16)),
				Type: []PacketType{CacheRequest, CacheReply}[rng.Intn(2)],
				App:  rng.Intn(4),
			})
			n.Step()
		}
		if err := n.Drain(100000); err != nil {
			t.Fatal(err)
		}
		return n.Stats()
	}
	a, b := run(), run()
	if a.DeliveredPackets != b.DeliveredPackets || a.QueuingSum != b.QueuingSum ||
		a.FlitHops != b.FlitHops || a.Cycles != b.Cycles {
		t.Errorf("non-deterministic simulation: %+v vs %+v", a, b)
	}
}

// TestMinimalRouting: every packet takes exactly the Manhattan distance
// in hops (XY routing is minimal).
func TestMinimalRouting(t *testing.T) {
	m := testMesh()
	n := MustNew(m)
	bad := 0
	n.SetDeliveryHandler(func(p *Packet) {
		if p.Hops != m.Hops(p.Src, p.Dst) {
			bad++
		}
	})
	rng := stats.NewRand(3)
	for i := 0; i < 400; i++ {
		n.Inject(&Packet{
			Src:  mesh.Tile(rng.Intn(16)),
			Dst:  mesh.Tile(rng.Intn(16)),
			Type: CacheRequest,
			App:  0,
		})
		if i%5 == 0 {
			n.Step()
		}
	}
	if err := n.Drain(100000); err != nil {
		t.Fatal(err)
	}
	if bad > 0 {
		t.Errorf("%d packets took non-minimal routes", bad)
	}
}

// TestLinkUtilization: flit counts per link sum to the total flit-hops,
// and the hottest link of a hotspot workload points at the hotspot.
func TestLinkUtilization(t *testing.T) {
	msh := testMesh()
	n := MustNew(msh)
	dst := mesh.Tile(5)
	for i := 0; i < 100; i++ {
		for s := 0; s < 16; s++ {
			if mesh.Tile(s) != dst && s%3 == 0 {
				n.Inject(&Packet{Src: mesh.Tile(s), Dst: dst, Type: CacheRequest, App: 0})
			}
		}
		n.Step()
	}
	if err := n.Drain(100000); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	var sum int64
	for _, row := range st.LinkFlits {
		for _, f := range row {
			sum += f
		}
	}
	if sum != st.FlitHops {
		t.Errorf("link flits sum %d != FlitHops %d", sum, st.FlitHops)
	}
	hot := st.HottestLinks(3)
	if len(hot) == 0 {
		t.Fatal("no hot links")
	}
	// The top link must be adjacent to the hotspot tile (feeding it).
	m := msh
	if d := m.Hops(mesh.Tile(hot[0].Tile), dst); d > 1 {
		t.Errorf("hottest link at tile %d is %d hops from the hotspot", hot[0].Tile, d)
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].Flits > hot[i-1].Flits {
			t.Error("hottest links not sorted")
		}
	}
}
