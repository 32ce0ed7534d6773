// Package power estimates NoC power in the style of DSENT [24], the
// model the paper uses at 45nm and 1V: dynamic energy proportional to
// flit activity (buffer write+read, crossbar traversal, arbitration at
// every router hop, plus link traversal), and static leakage
// proportional to router and link count. Absolute watts are
// approximations from published 45nm router characterizations; the
// paper's Figure 11 compares mappings, and those ratios depend only on
// the per-flit-hop energy being fixed, which this model preserves
// exactly (DESIGN.md, substitution 3).
package power

import (
	"fmt"

	"obm/internal/noc"
)

// Params holds per-event energies in picojoules and leakage in
// milliwatts for one router/link at 45nm, 1V, 128-bit flits.
type Params struct {
	// BufWrite and BufRead are per-flit buffer energies.
	BufWrite, BufRead float64
	// Crossbar is the per-flit switch traversal energy.
	Crossbar float64
	// Arbiter is the per-flit allocation energy.
	Arbiter float64
	// Link is the per-flit link traversal energy.
	Link float64
	// RouterLeakage and LinkLeakage are static power per device in mW.
	RouterLeakage, LinkLeakage float64
	// ClockGHz converts cycles to seconds (Table 2: 2 GHz).
	ClockGHz float64
}

// Default45nm returns parameters representative of DSENT's 45nm bulk
// process for a 5-port 128-bit 3-stage router.
func Default45nm() Params {
	return Params{
		BufWrite:      0.60,
		BufRead:       0.55,
		Crossbar:      1.05,
		Arbiter:       0.12,
		Link:          1.30,
		RouterLeakage: 2.1,
		LinkLeakage:   0.4,
		ClockGHz:      2.0,
	}
}

// Validate reports an error for non-physical parameters.
func (p Params) Validate() error {
	if p.BufWrite < 0 || p.BufRead < 0 || p.Crossbar < 0 || p.Arbiter < 0 ||
		p.Link < 0 || p.RouterLeakage < 0 || p.LinkLeakage < 0 {
		return fmt.Errorf("power: negative energy parameter: %+v", p)
	}
	if p.ClockGHz <= 0 {
		return fmt.Errorf("power: clock must be positive, got %v GHz", p.ClockGHz)
	}
	return nil
}

// PerFlitHop returns the dynamic energy of moving one flit one hop
// (through a router and the following link), in pJ.
func (p Params) PerFlitHop() float64 {
	return p.BufWrite + p.BufRead + p.Crossbar + p.Arbiter + p.Link
}

// Report breaks an estimate down.
type Report struct {
	// DynamicW is flit-activity power in watts.
	DynamicW float64
	// StaticW is leakage in watts.
	StaticW float64
	// EnergyPJ is total dynamic energy in picojoules.
	EnergyPJ float64
}

// Estimate computes NoC power from simulation statistics: every
// flit-hop costs PerFlitHop, injection and ejection each cost a buffer
// transaction, and leakage accrues for routers+links over the simulated
// wall time.
func Estimate(p Params, st noc.Stats, numRouters, numLinks int) (Report, error) {
	if err := p.Validate(); err != nil {
		return Report{}, err
	}
	if numRouters < 0 || numLinks < 0 {
		return Report{}, fmt.Errorf("power: negative device count")
	}
	energy := float64(st.FlitHops) * p.PerFlitHop()
	// Source injection writes the first buffer; ejection reads the last.
	energy += float64(st.InjectedFlits) * p.BufWrite
	energy += float64(st.DeliveredFlits) * p.BufRead
	rep := Report{EnergyPJ: energy}
	if st.Cycles > 0 {
		seconds := float64(st.Cycles) / (p.ClockGHz * 1e9)
		rep.DynamicW = energy * 1e-12 / seconds
		rep.StaticW = (float64(numRouters)*p.RouterLeakage + float64(numLinks)*p.LinkLeakage) / 1e3
	}
	return rep, nil
}

// EstimateEnergy returns the dynamic NoC energy, in pJ, of moving
// flitHops flit-hops through the network: the analytic-model
// counterpart of Estimate for callers that know traffic volume but run
// no cycle-accurate simulation (core.Energy derives flitHops from the
// latency model's hop structure). flitHops may be fractional — the
// analytic model works in request rates, so the result is an energy
// rate at the same scale, which is all a relative comparison needs.
func EstimateEnergy(p Params, flitHops float64) float64 {
	return flitHops * p.PerFlitHop()
}

// MeshLinkCount returns the number of unidirectional inter-router links
// in a rows x cols mesh (each adjacent pair is connected both ways).
func MeshLinkCount(rows, cols int) int {
	if rows <= 0 || cols <= 0 {
		return 0
	}
	return 2 * (rows*(cols-1) + cols*(rows-1))
}
