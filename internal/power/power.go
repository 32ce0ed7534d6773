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
	"obm/internal/mesh"
	"obm/internal/noc"
)

// Per-event energies in picojoules and leakage in milliwatts for one
// router or link of DSENT's 45nm bulk process at 1V: a 5-port 128-bit
// 3-stage router.
const (
	// bufWrite and bufRead are per-flit buffer energies.
	bufWrite, bufRead = 0.60, 0.55
	// crossbar is the per-flit switch traversal energy.
	crossbar = 1.05
	// arbiter is the per-flit allocation energy.
	arbiter = 0.12
	// link is the per-flit link traversal energy.
	link = 1.30
	// routerLeakage and linkLeakage are static power per device.
	routerLeakage, linkLeakage = 2.1, 0.4
	// clockGHz converts cycles to seconds (Table 2: 2 GHz).
	clockGHz = 2.0
)

// perFlitHop is the dynamic energy, in pJ, of moving one flit one hop
// (through a router and the following link). As a float64 it equals
// the run-time sum of its five terms in this order.
const perFlitHop = bufWrite + bufRead + crossbar + arbiter + link

// Report breaks an estimate down.
type Report struct {
	// DynamicW is flit-activity power in watts.
	DynamicW float64
	// StaticW is leakage in watts.
	StaticW float64
	// EnergyPJ is total dynamic energy in picojoules.
	EnergyPJ float64
}

// Estimate computes the power of the NoC on m from simulation
// statistics: every flit-hop costs perFlitHop, injection and ejection
// each cost a buffer transaction, and leakage accrues over the
// simulated wall time for m's routers, one per tile, and its
// unidirectional links, two per adjacent tile pair.
func Estimate(m *mesh.Mesh, st noc.Stats) Report {
	energy := float64(st.FlitHops) * perFlitHop
	// Source injection writes the first buffer; ejection reads the last.
	energy += float64(st.InjectedFlits) * bufWrite
	energy += float64(st.DeliveredFlits) * bufRead
	rep := Report{EnergyPJ: energy}
	if st.Cycles > 0 {
		rows, cols := m.Rows(), m.Cols()
		links := 2 * (rows*(cols-1) + cols*(rows-1))
		seconds := float64(st.Cycles) / (clockGHz * 1e9)
		rep.DynamicW = energy * 1e-12 / seconds
		rep.StaticW = (float64(m.NumTiles())*routerLeakage + float64(links)*linkLeakage) / 1e3
	}
	return rep
}

// EstimateEnergy returns the dynamic NoC energy, in pJ, of moving
// flitHops flit-hops through the network: the analytic-model
// counterpart of Estimate for callers that know traffic volume but run
// no cycle-accurate simulation (core.Energy derives flitHops from the
// latency model's hop structure). flitHops may be fractional — the
// analytic model works in request rates, so the result is an energy
// rate at the same scale, which is all a relative comparison needs.
func EstimateEnergy(flitHops float64) float64 {
	return flitHops * perFlitHop
}
