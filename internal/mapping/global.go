package mapping

import (
	"context"

	"obm/internal/core"
)

// Global is the traditional performance-oriented mapper of Section II.D:
// it minimizes the overall packet latency of all threads (equivalently
// the g-APL, whose denominator is mapping-independent) with one chip-wide
// optimal assignment, which is SAM (Section IV.A) over every thread and
// every tile. The paper shows this mapper is counter-optimal for
// latency balance; it is the primary comparison baseline.
type Global struct{}

// Name implements Mapper.
func (Global) Name() string { return "Global" }

// Fingerprint implements Mapper. Global is parameterless and fully
// deterministic.
func (Global) Fingerprint() string { return "global" }

// Map implements Mapper: the SAM instance (Algorithm 1) of every
// thread onto every tile, whose cost matrix entry for thread j on tile
// k is c_j*TC(k) + m_j*TM(k); one Hungarian solve yields the
// g-APL-optimal permutation in O(N^3).
func (Global) Map(ctx context.Context, p *core.Problem) (core.Mapping, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	assign, _, err := p.NewSAMSolver().SolveSAM(0, p.N(), core.IdentityMapping(p.N()))
	if err != nil {
		return nil, err
	}
	return assign, nil
}
