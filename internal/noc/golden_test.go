package noc

import (
	"testing"

	"obm/internal/mesh"
	"obm/internal/stats"
)

// fingerprintStats folds every observable statistic of a simulation —
// counters, per-type and per-app aggregates, link flit counts, and
// histogram shape — into one FNV-1a style hash. The golden tests pin
// these hashes so hot-path refactors (calendar queues, circular flit
// buffers, active-router worklists, packet pooling) provably do not
// change simulated behaviour bit-for-bit.
func fingerprintStats(st Stats) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v int64) {
		h ^= uint64(v)
		h *= 1099511628211
	}
	mix(st.Cycles)
	mix(st.InjectedPackets)
	mix(st.DeliveredPackets)
	mix(st.InjectedFlits)
	mix(st.DeliveredFlits)
	mix(st.FlitHops)
	mix(st.QueuingSum)
	mix(st.LocalDeliveries)
	for _, pt := range []PacketType{CacheRequest, CacheReply, MemRequest, MemReply} {
		ts := st.ByType[pt]
		mix(ts.Packets)
		mix(ts.LatencySum)
		mix(ts.HopSum)
	}
	for _, row := range st.LinkFlits {
		for _, f := range row {
			mix(f)
		}
	}
	for _, ts := range st.ByApp {
		mix(ts.Packets)
		mix(ts.LatencySum)
		mix(ts.HopSum)
	}
	for i := range st.HistByApp {
		hg := &st.HistByApp[i]
		mix(hg.Count())
		mix(int64(hg.Percentile(50)))
		mix(int64(hg.Percentile(95)))
		mix(int64(hg.Percentile(99)))
	}
	return h
}

// goldenRun drives a network on msh with a seeded Bernoulli workload for cycles
// cycles, drains, and returns the stats fingerprint.
func goldenRun(t *testing.T, msh *mesh.Mesh, seed uint64, rate float64, cycles int) uint64 {
	t.Helper()
	n := MustNew(msh)
	m := n.Mesh()
	rng := stats.NewRand(seed)
	types := []PacketType{CacheRequest, CacheReply, MemRequest, MemReply}
	for cyc := 0; cyc < cycles; cyc++ {
		for _, src := range m.Tiles() {
			if rng.Float64() < rate {
				dst := mesh.Tile(rng.Intn(m.NumTiles()))
				pt := types[rng.Intn(len(types))]
				app := rng.Intn(3)
				if err := n.Inject(&Packet{Src: src, Dst: dst, Type: pt, App: app}); err != nil {
					t.Fatal(err)
				}
			}
		}
		n.Step()
	}
	if err := n.Drain(200_000); err != nil {
		t.Fatal(err)
	}
	return fingerprintStats(n.Stats())
}

// handlerRun drives a network whose delivery handler re-injects replies
// from its own random stream: handler RNG draws, packet-pool reuse and
// packet ids all depend on the exact delivery order, so this pins the
// order in which Step ejects packets and runs the handler.
func handlerRun(t *testing.T, msh *mesh.Mesh, seed uint64, rate float64, cycles int) uint64 {
	t.Helper()
	n := MustNew(msh)
	m := n.Mesh()
	hrng := stats.NewRand(seed ^ 0xabcdef)
	n.SetDeliveryHandler(func(p *Packet) {
		// Half of the requests get a pooled reply to a random tile.
		if p.Type == CacheRequest && hrng.Float64() < 0.5 {
			r := n.AllocPacket()
			r.Src, r.Dst = p.Dst, mesh.Tile(hrng.Intn(m.NumTiles()))
			r.Type, r.App = CacheReply, p.App
			if err := n.Inject(r); err != nil {
				t.Error(err)
			}
		}
	})
	rng := stats.NewRand(seed)
	for cyc := 0; cyc < cycles; cyc++ {
		for _, src := range m.Tiles() {
			if rng.Float64() < rate {
				p := n.AllocPacket()
				p.Src = src
				p.Dst = mesh.Tile(rng.Intn(m.NumTiles()))
				p.Type, p.App = CacheRequest, rng.Intn(2)
				if err := n.Inject(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		n.Step()
	}
	if err := n.Drain(200_000); err != nil {
		t.Fatal(err)
	}
	return fingerprintStats(n.Stats())
}

// TestGoldenDeterminism pins fixed-seed statistics fingerprints of the
// Table 2 network at several mesh sizes and loads. Any divergence means
// a change to the simulator altered simulated behaviour, not just its
// speed.
func TestGoldenDeterminism(t *testing.T) {
	runGoldenCases(t, []goldenCase{
		{
			name:   "mesh8x8-default",
			msh:    mesh.MustNew(8, 8),
			seed:   12345,
			rate:   0.02,
			cycles: 4000,
			want:   7335697584486746572,
		},
		{
			name:   "mesh4x4-deep-contention",
			msh:    testMesh(),
			seed:   99,
			rate:   0.10,
			cycles: 2500,
			want:   5155503032251214331,
		},
		{
			name:   "mesh8x8-rate0.04",
			msh:    mesh.MustNew(8, 8),
			seed:   2024,
			rate:   0.04,
			cycles: 3000,
			want:   15724342180280407621,
		},
		{
			name:   "mesh4x4-rate0.08",
			msh:    testMesh(),
			seed:   4711,
			rate:   0.08,
			cycles: 3000,
			want:   8924027941926113007,
		},
		// Far past saturation, so VC and switch allocation arbitrate
		// among many requesters on most cycles; the 8x4 case runs the
		// same load on a non-square mesh, where XY routes load the X
		// and Y links unevenly.
		{
			name:   "mesh4x4-saturated",
			msh:    testMesh(),
			seed:   5150,
			rate:   0.35,
			cycles: 3000,
			want:   14029835901496794193,
		},
		{
			name:   "mesh8x4-saturated",
			msh:    mesh.MustNew(8, 4),
			seed:   5150,
			rate:   0.35,
			cycles: 3000,
			want:   11492552744448135304,
		},
	})
}

// TestHandlerDeterminism pins fingerprints of the handler-reinjection
// driver, whose outcome depends on the exact order in which Step ejects
// packets and runs the delivery handler.
func TestHandlerDeterminism(t *testing.T) {
	runGoldenCases(t, []goldenCase{
		{
			name:   "mesh6x6",
			msh:    mesh.MustNew(6, 6),
			run:    handlerRun,
			seed:   4242,
			rate:   0.06,
			cycles: 2000,
			want:   12552059923734848932,
		},
	})
}

// goldenCase is one pinned fixed-seed run: a network on msh is driven
// by run (nil: goldenRun) and must fingerprint to want, twice in a row.
type goldenCase struct {
	name   string
	msh    *mesh.Mesh
	run    func(*testing.T, *mesh.Mesh, uint64, float64, int) uint64
	seed   uint64
	rate   float64
	cycles int
	want   uint64
}

func runGoldenCases(t *testing.T, cases []goldenCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := tc.run
			if run == nil {
				run = goldenRun
			}
			if got := run(t, tc.msh, tc.seed, tc.rate, tc.cycles); got != tc.want {
				t.Errorf("stats fingerprint = %d, want %d (simulated behaviour changed)", got, tc.want)
			}
			if again := run(t, tc.msh, tc.seed, tc.rate, tc.cycles); again != tc.want {
				t.Errorf("rerun fingerprint = %d, want %d (nondeterministic)", again, tc.want)
			}
		})
	}
}
