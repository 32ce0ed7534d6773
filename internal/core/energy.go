package core

import "obm/internal/power"

// Energy is a dynamic NoC energy objective backed by
// power.EstimateEnergy: the latency-weighted flit-hop volume of a
// mapping priced at the DSENT-style 45nm per-flit-hop energy. It is
// the energy axis the multi-objective literature (Marcon et al.; the
// Pareto-Optimization Framework for Automated NoC Design) trades
// against latency, expressed inside the Objective contract so it can
// be optimized scalar-wise (-objective energy) and as the third
// component of the Pareto vector (ParetoObjectives).
//
// Derivation: the analytic model prices thread j on tile k at
// c_j·TC(k) + m_j·TM(k), where TC(k) = avgHops(k)·perHop +
// TdS·(N−1)/N and TM(k) = HM(k)·perHop + TdS (0 on a tile hosting a
// memory controller). Summing over all threads, the serialization
// terms contribute a mapping-independent offset TdS·((N−1)/N·ΣC +
// ΣM), so (Σ num − offset)/perHop recovers the rate-weighted hop
// volume, which power.EstimateEnergy prices in pJ. Threads landing on
// a controller tile have no TdS term in num, so the offset slightly
// over-subtracts for them; accepting that bounded, mapping-dependent
// error (clamped at zero) is what keeps Energy a pure function of the
// shared numerator domain like every other Objective — and makes it
// ordering-equivalent to total latency, which is exactly the axis the
// {max-APL, dev-APL, energy} front trades balance against.
//
// Models without hop structure (perHop == 0, e.g. NewTable instances
// with zero Params) score 0.
type Energy struct{}

// Name implements Objective.
func (Energy) Name() string { return "energy" }

// Fingerprint implements Objective.
func (Energy) Fingerprint() string { return "energy" }

// Value implements Objective: it converts the chip-wide total packet
// latency into pJ.
func (Energy) Value(p *Problem, num []float64) float64 {
	var total float64
	for _, n := range num {
		total += n
	}
	mp := p.lm.Params()
	perHop := mp.PerHop()
	if perHop <= 0 {
		return 0
	}
	n := float64(p.lm.NumTiles())
	offset := mp.TdS * (p.totalCache*(n-1)/n + p.totalMem)
	hops := (total - offset) / perHop
	if hops < 0 {
		hops = 0
	}
	return power.EstimateEnergy(hops)
}
