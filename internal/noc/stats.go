package noc

// TypeStats aggregates latency statistics for one packet type or one
// application.
type TypeStats struct {
	// Packets is the number of delivered packets.
	Packets int64
	// LatencySum is the total measured latency in cycles.
	LatencySum int64
	// HopSum is the total number of link traversals.
	HopSum int64
}

// AvgLatency returns the average packet latency in cycles (0 when no
// packets were delivered).
func (s TypeStats) AvgLatency() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Packets)
}

// Stats aggregates everything the experiments read from a simulation.
type Stats struct {
	// Cycles simulated so far.
	Cycles int64
	// InjectedPackets / DeliveredPackets count whole packets.
	InjectedPackets  int64
	DeliveredPackets int64
	// InjectedFlits / DeliveredFlits count flits (conservation checks).
	InjectedFlits  int64
	DeliveredFlits int64
	// FlitHops counts flit-link traversals; the dynamic power model is
	// proportional to this plus per-router activity.
	FlitHops int64
	// QueuingSum accumulates measured latency minus the uncontended
	// ideal (hops*perHop + flits-1), i.e. total queuing cycles.
	QueuingSum int64
	// LocalDeliveries counts packets whose source equals their
	// destination (no network traversal; latency 0).
	LocalDeliveries int64

	// ByType indexes statistics by PacketType.
	ByType [numPacketTypes]TypeStats
	// LinkFlits[t][p] counts flits sent from tile t's router out of port
	// p (indexed by Port; Local is always zero). Divide by Cycles for
	// utilization; the hottest entries locate congestion.
	LinkFlits [][]int64
	// ByApp indexes statistics by application tag (packets with App < 0
	// are not recorded here).
	ByApp []TypeStats
	// HistByApp holds per-application latency histograms, parallel to
	// ByApp, for tail-latency analysis.
	HistByApp []Histogram
}

// AvgLatency returns the global average packet latency.
func (s *Stats) AvgLatency() float64 {
	if s.DeliveredPackets == 0 {
		return 0
	}
	var sum int64
	for _, t := range s.ByType {
		sum += t.LatencySum
	}
	return float64(sum) / float64(s.DeliveredPackets)
}

// AvgQueuingPerHop returns the average queuing latency per hop, the
// quantity the paper's td_q stands for. Packets with zero hops are
// excluded by construction (they accumulate neither hops nor queuing).
func (s *Stats) AvgQueuingPerHop() float64 {
	if s.FlitHops == 0 {
		return 0
	}
	var hops int64
	for _, t := range s.ByType {
		hops += t.HopSum
	}
	if hops == 0 {
		return 0
	}
	return float64(s.QueuingSum) / float64(hops)
}

// appStats returns the per-application entry, growing the slices as
// needed.
func (s *Stats) appStats(app int) *TypeStats {
	for len(s.ByApp) <= app {
		s.ByApp = append(s.ByApp, TypeStats{})
		s.HistByApp = append(s.HistByApp, Histogram{})
	}
	return &s.ByApp[app]
}

// HottestLinks returns the k busiest (tile, port, flits) triples in
// descending flit count.
func (s *Stats) HottestLinks(k int) []LinkLoad {
	var out []LinkLoad
	for t, row := range s.LinkFlits {
		for p, f := range row {
			if f > 0 {
				out = append(out, LinkLoad{Tile: t, Port: Port(p), Flits: f})
			}
		}
	}
	// Insertion sort by flits descending (small lists).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Flits < out[j].Flits; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// LinkLoad is one outgoing link's flit count.
type LinkLoad struct {
	Tile  int
	Port  Port
	Flits int64
}

// AppPercentile returns application app's p-th percentile latency.
func (s *Stats) AppPercentile(app int, p float64) float64 {
	if app < 0 || app >= len(s.HistByApp) {
		return 0
	}
	return s.HistByApp[app].Percentile(p)
}

// AppAPL returns application app's measured average packet latency.
func (s *Stats) AppAPL(app int) float64 {
	if app < 0 || app >= len(s.ByApp) {
		return 0
	}
	return s.ByApp[app].AvgLatency()
}

// Histogram is a fixed-bucket latency histogram: one bucket per cycle
// up to maxBucket-1, with a final overflow bucket. It supports the
// tail-latency experiments (QoS is about P99, not just the mean).
//
// Bucket storage is a lazily allocated slice, so value copies of a
// Histogram share it; use Clone for an independent snapshot
// (Network.Stats does this for every row of HistByApp).
type Histogram struct {
	buckets []int64
	count   int64
	sum     int64
}

// maxBucket is the largest exactly-tracked latency in cycles.
const maxBucket = 512

// Add records one latency sample.
func (h *Histogram) Add(v int64) {
	if h.buckets == nil {
		h.buckets = make([]int64, maxBucket+1)
	}
	if v < 0 {
		v = 0
	}
	if v > maxBucket {
		v = maxBucket
	}
	h.buckets[v]++
	h.count++
	h.sum += v
}

// Clone returns a deep copy whose bucket storage is independent of the
// live histogram.
func (h Histogram) Clone() Histogram {
	c := h
	c.buckets = append([]int64(nil), h.buckets...)
	return c
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the mean of recorded samples (overflow clamped).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Percentile returns the p-th percentile latency (0..100). Overflowed
// samples report maxBucket.
func (h *Histogram) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	target := int64(p / 100 * float64(h.count-1))
	var seen int64
	for v, c := range h.buckets {
		seen += c
		if seen > target {
			return float64(v)
		}
	}
	return float64(maxBucket)
}
