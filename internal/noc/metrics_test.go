package noc

import (
	"testing"

	"obm/internal/mesh"
	"obm/internal/obs"
	"obm/internal/stats"
)

// TestMetricsMatchStats pins the flush invariant: after a simulation's
// final Stats snapshot, the registry deltas for cycles and flits equal
// the snapshot's own totals exactly — the obs view and the simulator's
// existing Stats view can never disagree.
func TestMetricsMatchStats(t *testing.T) {
	before := obs.Default().Snapshot()
	bNets, _ := before.Counter("noc.networks.created")
	bCycles, _ := before.Counter("noc.cycles.stepped")
	bInj, _ := before.Counter("noc.flits.injected")
	bDel, _ := before.Counter("noc.flits.delivered")

	n := MustNew(testMesh())
	rng := stats.NewRand(7)
	tiles := n.Mesh().NumTiles()
	for i := 0; i < 200; i++ {
		pt := CacheRequest
		if i%3 == 0 {
			pt = CacheReply
		}
		p := &Packet{Src: mesh.Tile(rng.Intn(tiles)), Dst: mesh.Tile(rng.Intn(tiles)), Type: pt, App: 0}
		if err := n.Inject(p); err != nil {
			t.Fatal(err)
		}
		n.Step()
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	s := n.Stats() // flushes

	after := obs.Default().Snapshot()
	aNets, _ := after.Counter("noc.networks.created")
	aCycles, _ := after.Counter("noc.cycles.stepped")
	aInj, _ := after.Counter("noc.flits.injected")
	aDel, _ := after.Counter("noc.flits.delivered")
	if got := aNets - bNets; got != 1 {
		t.Errorf("networks.created delta = %d, want 1", got)
	}
	if got, want := aCycles-bCycles, uint64(s.Cycles); got != want {
		t.Errorf("cycles delta = %d, want Stats total %d", got, want)
	}
	if got, want := aInj-bInj, uint64(s.InjectedFlits); got != want {
		t.Errorf("injected-flit delta = %d, want Stats total %d", got, want)
	}
	if got, want := aDel-bDel, uint64(s.DeliveredFlits); got != want {
		t.Errorf("delivered-flit delta = %d, want Stats total %d", got, want)
	}
	if peak, ok := after.Gauge("noc.eventring.peak_inflight"); !ok || peak <= 0 {
		t.Errorf("eventring peak = %d,%v; traffic flowed, want > 0", peak, ok)
	}

	// Repeated snapshots flush only deltas: an immediate second Stats
	// adds nothing.
	_ = n.Stats()
	again := obs.Default().Snapshot()
	if v, _ := again.Counter("noc.flits.injected"); v != aInj {
		t.Errorf("idle re-snapshot moved injected counter %d -> %d", aInj, v)
	}
}
