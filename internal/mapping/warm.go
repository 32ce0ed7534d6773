package mapping

import (
	"context"
	"fmt"

	"obm/internal/core"
)

// WarmStart refines an existing valid mapping with sort-select-swap's
// fine-tuning phases only: the sliding-window permutation search and
// the per-application SAM polish, iterated by the same fineTune as
// Map's step 3. The coarse sort/select/assign phases are skipped — the
// incumbent mapping *is* the coarse solution — which is what makes warm
// restarts cheap enough to run at every remap of a streaming
// scheduler: a full Map is O(sort + A·SAM + swap), a warm start just
// O(swap), and with a small MaxStep the swap sweep itself shrinks from
// O(N²/w) to O(N·MaxStep) windows.
//
// The result never scores worse than base under the configured
// objective: the window search only accepts improving permutations, and
// because the SAM polish minimizes per-app APL sums — which can
// *increase* spread-sensitive objectives like dev-APL — the final
// mapping is compared against base and base wins ties or regressions.
func (s SortSelectSwap) WarmStart(ctx context.Context, p *core.Problem, base core.Mapping) (core.Mapping, error) {
	if err := s.checkWindow(); err != nil {
		return nil, err
	}
	if err := base.Validate(p.N()); err != nil {
		return nil, fmt.Errorf("sss: warm start: %w", err)
	}
	m := base.Clone()
	if err := s.fineTune(ctx, p, m, p.Model().TilesByTC(), p.NewSAMSolver()); err != nil {
		return nil, err
	}
	sc := p.Scorer(s.Objective)
	if sc.Score(m) > sc.Score(base) {
		return base.Clone(), nil
	}
	return m, nil
}
