package noc

import (
	"math/bits"
	"slices"
	"testing"

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

// maskWalk returns the flattened indices the allocation stages visit
// for one output's request masks and round-robin pointer ptr.
func maskWalk(masks *[numPorts]uint64, vcs, ptr int) []int {
	var got []int
	sp, sv := ptr/vcs, ptr%vcs
	for k := 0; k <= int(numPorts); k++ {
		in, m := rotatedBits(masks, sp, sv, k)
		for m != 0 {
			got = append(got, int(in)*vcs+bits.TrailingZeros64(m))
			m &= m - 1
		}
	}
	return got
}

// TestRotatedBitsMatchesRotatedScan checks that walking per-input-port
// request masks step by step visits exactly the indices, in exactly the
// order, that the sorted-list rotated scan visits, for every round-robin
// pointer: at the router's numVCs, and at 63 VCs to exercise the walk
// across nearly the whole 64-bit mask.
func TestRotatedBitsMatchesRotatedScan(t *testing.T) {
	rng := stats.NewRand(2024)
	for _, vcs := range []int{numVCs, 63} {
		valid := uint64(1)<<uint(vcs) - 1
		for trial := 0; trial < 40; trial++ {
			var masks [numPorts]uint64
			for p := range masks {
				switch trial % 4 {
				case 0: // sparse
					masks[p] = rng.Uint64() & rng.Uint64() & rng.Uint64() & valid
				case 1: // dense
					masks[p] = (rng.Uint64() | rng.Uint64()) & valid
				case 2: // whole ports idle or full
					if rng.Intn(2) == 0 {
						masks[p] = valid
					}
				default: // at most the top VC
					masks[p] = rng.Uint64() & (uint64(1) << uint(vcs-1))
				}
			}
			var cand []int
			for p := range masks {
				for v := 0; v < vcs; v++ {
					if masks[p]&(uint64(1)<<uint(v)) != 0 {
						cand = append(cand, p*vcs+v)
					}
				}
			}
			for ptr := 0; ptr < int(numPorts)*vcs; ptr++ {
				var want []int
				rotatedScan(cand, ptr, func(idx int) bool {
					want = append(want, idx)
					return false
				})
				if got := maskWalk(&masks, vcs, ptr); !slices.Equal(got, want) {
					t.Fatalf("vcs=%d masks=%x ptr=%d: walk %v, want %v", vcs, masks, ptr, got, want)
				}
				if ptr%vcs == 0 {
					if _, m := rotatedBits(&masks, ptr/vcs, 0, int(numPorts)); m != 0 {
						t.Fatalf("vcs=%d ptr=%d: final step = %x, want empty", vcs, ptr, m)
					}
				}
			}
		}
	}
}
