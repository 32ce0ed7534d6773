package noc

import "obm/internal/obs"

// Process-wide NoC metrics. The simulator's per-cycle loop is engineered
// around an idle Step of about 15 ns (BenchmarkNoCStep/idle), so nothing
// here touches that path: each Network accumulates into its own plain
// counters (it is single-goroutine by contract) and flushes deltas to
// the shared registry when Stats() takes a snapshot, where one atomic
// add per counter is free.
// The flushed totals therefore always equal the sum of the final Stats
// snapshots across all networks, which is the invariant
// TestMetricsMatchStats pins.
var (
	mNetworks       = obs.Default().Counter("noc.networks.created")
	mCycles         = obs.Default().Counter("noc.cycles.stepped")
	mInjectedFlits  = obs.Default().Counter("noc.flits.injected")
	mDeliveredFlits = obs.Default().Counter("noc.flits.delivered")
	// mRingPeak is the high-water mark of calendar-queue occupancy
	// across all networks: flits granted a switch but not yet in the
	// downstream input buffer, whether on the link or in the downstream
	// router's pipeline — the load signal for sizing the arrival ring.
	mRingPeak = obs.Default().Gauge("noc.eventring.peak_inflight")
)

// flushMetrics exports the deltas accumulated since the previous flush.
// Callers hold no lock: the Network is single-goroutine, and the
// registry side is atomic.
func (n *Network) flushMetrics() {
	if d := n.cycle - n.flushed.cycles; d > 0 {
		mCycles.Add(uint64(d))
		n.flushed.cycles = n.cycle
	}
	if d := n.stats.InjectedFlits - n.flushed.injectedFlits; d > 0 {
		mInjectedFlits.Add(uint64(d))
		n.flushed.injectedFlits = n.stats.InjectedFlits
	}
	if d := n.stats.DeliveredFlits - n.flushed.deliveredFlits; d > 0 {
		mDeliveredFlits.Add(uint64(d))
		n.flushed.deliveredFlits = n.stats.DeliveredFlits
	}
	if n.maxInFlight > 0 {
		mRingPeak.SetMax(int64(n.maxInFlight))
	}
}
