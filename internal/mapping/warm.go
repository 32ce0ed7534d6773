package mapping

import (
	"context"
	"fmt"
	"math"

	"obm/internal/core"
)

// WarmStart refines an existing valid mapping with sort-select-swap's
// fine-tuning phases only: the sliding-window permutation search and
// the per-application SAM polish, iterated like Map's pass loop. The
// coarse sort/select/assign phases are skipped — the incumbent mapping
// *is* the coarse solution — which is what makes warm restarts cheap
// enough to run at every remap of a streaming scheduler: a full Map is
// O(sort + A·SAM + swap), a warm start just O(swap), and with a small
// MaxStep the swap sweep itself shrinks from O(N²/w) to O(N·MaxStep)
// windows.
//
// The result never scores worse than base under the configured
// objective: the window search only accepts improving permutations, and
// because the SAM polish minimizes per-app APL sums — which can
// *increase* spread-sensitive objectives like dev-APL — the final
// mapping is compared against base and base wins ties or regressions.
func (s SortSelectSwap) WarmStart(ctx context.Context, p *core.Problem, base core.Mapping) (core.Mapping, error) {
	window := s.window()
	if window < 2 || window > 5 {
		return nil, fmt.Errorf("sss: window size %d out of range [2,5]", window)
	}
	if err := base.Validate(p.N()); err != nil {
		return nil, fmt.Errorf("sss: warm start: %w", err)
	}
	m := base.Clone()
	sorted := sortedSlotsByTC(p)
	sam := p.NewSAMSolver()

	passes := s.Passes
	if passes <= 0 {
		passes = 1
	}
	prevObj := math.Inf(1)
	sc := p.Scorer(s.Objective)
	var sw swapScratch
	for pass := 0; pass < passes; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sss: warm start interrupted in pass %d/%d: %w", pass+1, passes, err)
		}
		if !s.DisableSwap {
			if _, err := s.slideWindows(ctx, p, m, sorted, window, &sw); err != nil {
				return nil, err
			}
		}
		if !s.DisableFinalSAM {
			for i := 0; i < p.NumApps(); i++ {
				if err := sam.ReoptimizeApp(m, i); err != nil {
					return nil, err
				}
			}
		}
		if s.DisableSwap {
			break
		}
		if obj := sc.Score(m); obj < prevObj-1e-12 {
			prevObj = obj
		} else {
			break
		}
	}
	if sc.Score(m) > sc.Score(base) {
		return base.Clone(), nil
	}
	return m, nil
}
