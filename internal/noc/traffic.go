package noc

import (
	"fmt"

	"obm/internal/mesh"
	"obm/internal/stats"
)

// Pattern generates destinations for synthetic traffic — the standard
// kernels used to characterize an interconnect (uniform random,
// transpose, bit-complement, hotspot). They validate the simulator the
// way Garnet is usually validated: latency stays near the zero-load
// bound until the pattern's saturation throughput, then diverges.
type Pattern interface {
	// Name labels the pattern.
	Name() string
	// Dst returns the destination for a packet injected at src.
	Dst(m *mesh.Mesh, src mesh.Tile, rng *stats.Rand) mesh.Tile
}

// UniformRandom sends each packet to a uniformly random tile.
type UniformRandom struct{}

// Name implements Pattern.
func (UniformRandom) Name() string { return "uniform" }

// Dst implements Pattern.
func (UniformRandom) Dst(m *mesh.Mesh, _ mesh.Tile, rng *stats.Rand) mesh.Tile {
	return mesh.Tile(rng.Intn(m.NumTiles()))
}

// Transpose sends (r, c) to (c, r) — adversarial for XY routing on the
// anti-diagonal links.
type Transpose struct{}

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// Dst implements Pattern.
func (Transpose) Dst(m *mesh.Mesh, src mesh.Tile, _ *stats.Rand) mesh.Tile {
	c := m.Coord(src)
	row, col := c.Col, c.Row
	if row >= m.Rows() {
		row = m.Rows() - 1
	}
	if col >= m.Cols() {
		col = m.Cols() - 1
	}
	return m.TileAt(row, col)
}

// BitComplement sends (r, c) to (rows-1-r, cols-1-c): every packet
// crosses the chip center.
type BitComplement struct{}

// Name implements Pattern.
func (BitComplement) Name() string { return "bit-complement" }

// Dst implements Pattern.
func (BitComplement) Dst(m *mesh.Mesh, src mesh.Tile, _ *stats.Rand) mesh.Tile {
	c := m.Coord(src)
	return m.TileAt(m.Rows()-1-c.Row, m.Cols()-1-c.Col)
}

// Hotspot sends hotspotFrac of its traffic to one hot tile and the
// rest uniformly.
type Hotspot struct {
	// Hot is the hotspot tile.
	Hot mesh.Tile
}

// hotspotFrac is the probability that a Hotspot packet targets the hot
// tile.
const hotspotFrac = 0.2

// Name implements Pattern.
func (h Hotspot) Name() string { return fmt.Sprintf("hotspot(%d)", h.Hot) }

// Dst implements Pattern.
func (h Hotspot) Dst(m *mesh.Mesh, _ mesh.Tile, rng *stats.Rand) mesh.Tile {
	if rng.Float64() < hotspotFrac {
		return h.Hot
	}
	return mesh.Tile(rng.Intn(m.NumTiles()))
}

// LoadPoint is one measurement of a load sweep.
type LoadPoint struct {
	// InjectionRate is packets per tile per cycle offered.
	InjectionRate float64
	// AvgLatency is the measured mean packet latency in cycles.
	AvgLatency float64
	// Throughput is delivered packets per tile per cycle.
	Throughput float64
	// Saturated reports that the network could not carry the offered
	// load: Throughput fell below saturationAccepted times
	// InjectionRate, or the network failed to drain within
	// sweepDrainCycles after the window closed.
	Saturated bool
}

const (
	// saturationAccepted is the accepted-to-offered throughput ratio
	// below which a load point counts as saturated, the working
	// definition of Dally & Towles (Principles and Practices of
	// Interconnection Networks, ch. 23).
	saturationAccepted = 0.9
	// sweepDrainCycles bounds the drain after a point's injection
	// window; a point that cannot drain is saturated.
	sweepDrainCycles = 200_000
)

// SweepConfig controls each point of a load-latency sweep; the caller
// picks the offered loads and passes each to MeasureLoadPoint.
type SweepConfig struct {
	// Cycles is the injection window per point.
	Cycles int64
	// Seed drives the injectors.
	Seed uint64
}

// DefaultSweepConfig returns the standard per-point settings: a
// 20,000-cycle injection window of cache requests.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		Cycles: 20_000,
		Seed:   1,
	}
}

// MeasureLoadPoint measures one (pattern, offered-load) point on a
// fresh seeded network: sw.Cycles of Bernoulli injection of cache
// requests (the packet ZeroLoadLatency assumes) at the given per-tile
// rate, then a drain bounded by sweepDrainCycles. Every point
// of a sweep is independent and deterministic in (m, pat, rate, sw),
// which is what lets experiments spread the points across workers.
func MeasureLoadPoint(m *mesh.Mesh, pat Pattern, rate float64, sw SweepConfig) (LoadPoint, error) {
	if sw.Cycles <= 0 {
		return LoadPoint{}, fmt.Errorf("noc: sweep needs a positive window")
	}
	n, err := New(m)
	if err != nil {
		return LoadPoint{}, err
	}
	tiles := m.Tiles()
	rng := stats.NewRand(sw.Seed)
	for cyc := int64(0); cyc < sw.Cycles; cyc++ {
		for _, src := range tiles {
			if rng.Float64() < rate {
				pkt := n.AllocPacket()
				pkt.Src, pkt.Dst, pkt.Type = src, pat.Dst(m, src, rng), CacheRequest
				if err := n.Inject(pkt); err != nil {
					return LoadPoint{}, err
				}
			}
		}
		n.Step()
	}
	pt := LoadPoint{InjectionRate: rate}
	drained := n.Drain(sweepDrainCycles) == nil
	st := n.Stats()
	pt.AvgLatency = st.AvgLatency()
	if st.Cycles > 0 {
		pt.Throughput = float64(st.DeliveredPackets) / float64(st.Cycles) / float64(m.NumTiles())
	}
	pt.Saturated = !drained || pt.Throughput < saturationAccepted*rate
	return pt, nil
}

// ZeroLoadLatency returns the analytic zero-load average latency of a
// pattern: mean hops times per-hop latency plus serialization.
func ZeroLoadLatency(m *mesh.Mesh, pat Pattern, samples int, seed uint64) (float64, error) {
	if m == nil {
		return 0, fmt.Errorf("noc: nil mesh")
	}
	if samples <= 0 {
		return 0, fmt.Errorf("noc: need positive sample count")
	}
	rng := stats.NewRand(seed)
	var sum float64
	for i := 0; i < samples; i++ {
		src := mesh.Tile(rng.Intn(m.NumTiles()))
		dst := pat.Dst(m, src, rng)
		h := m.Hops(src, dst)
		if h > 0 {
			sum += float64(h*PerHopLatency) + float64(CacheRequest.Flits()-1)
		}
	}
	return sum / float64(samples), nil
}
