package noc

import (
	"math/bits"
	"slices"
	"testing"

	"obm/internal/mesh"
	"obm/internal/stats"
)

// rotatedScan is the reference round-robin order the request-mask walk
// must reproduce: over a sorted list of flattened (port, VC) indices,
// visit those >= start in ascending order, then those < start.
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

// splitWalk returns the flattened indices the allocation stages visit
// for request word m and round-robin pointer ptr.
func splitWalk(m uint64, ptr int) []int {
	var got []int
	from, wrap := rrSplit(m, ptr)
	for _, w := range [2]uint64{from, wrap} {
		for w != 0 {
			got = append(got, bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return got
}

// TestRRSplitMatchesRotatedScan checks that walking the two words of
// rrSplit visits exactly the flattened (port, VC) indices, in exactly the
// order, that the sorted-list rotated scan visits, for every round-robin
// pointer over the router's totalVCs-bit request word.
func TestRRSplitMatchesRotatedScan(t *testing.T) {
	rng := stats.NewRand(2024)
	for trial := 0; trial < 40; trial++ {
		var m uint64
		for p := 0; p < int(numPorts); p++ {
			var pm uint64
			switch trial % 4 {
			case 0: // sparse
				pm = rng.Uint64() & rng.Uint64() & rng.Uint64() & portVCs
			case 1: // dense
				pm = (rng.Uint64() | rng.Uint64()) & portVCs
			case 2: // whole ports idle or full
				if rng.Intn(2) == 0 {
					pm = portVCs
				}
			default: // at most the top VC
				pm = rng.Uint64() & (uint64(1) << (numVCs - 1))
			}
			m |= pm << (p * numVCs)
		}
		var cand []int
		for idx := 0; idx < totalVCs; idx++ {
			if m&(uint64(1)<<idx) != 0 {
				cand = append(cand, idx)
			}
		}
		for ptr := 0; ptr < totalVCs; ptr++ {
			var want []int
			rotatedScan(cand, ptr, func(idx int) bool {
				want = append(want, idx)
				return false
			})
			if got := splitWalk(m, ptr); !slices.Equal(got, want) {
				t.Fatalf("m=%x ptr=%d: walk %v, want %v", m, ptr, got, want)
			}
		}
	}
}

// rebuildMasks recomputes a router's request words from scratch by
// scanning every input VC's front flit: the per-cycle rebuild the
// event-kept words replaced. A front whose VC has no route yet is routed
// here without touching the router.
func rebuildMasks(r *router) (req, vaReq [numPorts]uint64) {
	for p := Port(0); p < numPorts; p++ {
		for v := 0; v < numVCs; v++ {
			b := &r.in[p][v]
			if b.empty() {
				continue
			}
			f := b.front()
			out := b.outPort
			if out < 0 {
				if !f.isHead() {
					continue
				}
				out = xyRoute(r.n.mesh, r.id, f.pkt.Dst)
			}
			bit := uint64(1) << (int(p)*numVCs + v)
			req[out] |= bit
			if b.outVC < 0 && out != Local && f.isHead() {
				vaReq[out] |= bit
			}
		}
	}
	return req, vaReq
}

// checkRequestState fails unless every router's request words equal a
// rebuild from its buffer fronts and the active-router worklist holds
// exactly the routers with buffered flits.
func checkRequestState(t *testing.T, n *Network) {
	t.Helper()
	rowCount := make([]int32, n.mesh.Rows())
	for _, r := range n.routers {
		req, vaReq := rebuildMasks(r)
		if r.req != req || r.vaReq != vaReq {
			t.Fatalf("cycle %d router %d: req %x vaReq %x, rebuild gives req %x vaReq %x",
				n.cycle, r.id, r.req, r.vaReq, req, vaReq)
		}
		w := n.actR
		on := w.bits[r.row*w.wpr+r.col>>6]&(1<<uint(r.col&63)) != 0
		if on != (r.occ > 0) {
			t.Fatalf("cycle %d router %d: on worklist %v with %d buffered flits", n.cycle, r.id, on, r.occ)
		}
		if on {
			rowCount[r.row]++
		}
	}
	for row, c := range rowCount {
		if n.actR.rowCount(row) != c {
			t.Fatalf("cycle %d row %d: worklist count %d, want %d", n.cycle, row, n.actR.rowCount(row), c)
		}
	}
}

// TestRequestMasksMatchRebuild checks the invariant the router's event
// updates keep: after every Step, the request words equal a from-scratch
// rebuild and the worklist is exact, through injection, contention and
// drain, on square and non-square meshes.
func TestRequestMasksMatchRebuild(t *testing.T) {
	cases := []struct {
		name   string
		msh    *mesh.Mesh
		pat    Pattern
		rate   float64
		cycles int
	}{
		// Far past saturation with a hot tile: VC and switch allocation
		// arbitrate among many requesters, and the hot tile's ejection
		// port is contended on most cycles.
		{"mesh4x4-hotspot-saturated", testMesh(), Hotspot{Hot: 5}, 0.35, 1500},
		// About 0.25 packets per cycle chip-wide, the paper's load.
		{"mesh8x8-paper-load", mesh.MustNew(8, 8), UniformRandom{}, 0.004, 3000},
		{"mesh8x4", mesh.MustNew(8, 4), UniformRandom{}, 0.2, 1500},
		{"mesh3x7", mesh.MustNew(3, 7), UniformRandom{}, 0.2, 1500},
	}
	types := []PacketType{CacheRequest, CacheReply, MemRequest, MemReply}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := MustNew(tc.msh)
			rng := stats.NewRand(7)
			for cyc := 0; cyc < tc.cycles; cyc++ {
				for _, src := range tc.msh.Tiles() {
					if rng.Float64() < tc.rate {
						p := &Packet{Src: src, Dst: tc.pat.Dst(tc.msh, src, rng), Type: types[rng.Intn(len(types))]}
						if err := n.Inject(p); err != nil {
							t.Fatal(err)
						}
					}
				}
				n.Step()
				checkRequestState(t, n)
			}
			for steps := 0; n.Busy(); steps++ {
				if steps == 200_000 {
					t.Fatal("network failed to drain")
				}
				n.Step()
				checkRequestState(t, n)
			}
		})
	}
}
