package mapping_test

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/workload"
)

// Map the paper's Figure 5 worked example with sort-select-swap: the
// optimal, perfectly balanced solution gives every application an APL
// of 10.3375 cycles.
func ExampleSortSelectSwap() {
	lm := model.MustNew(mesh.MustNew(4, 4), model.Figure5Params())
	p := core.MustNewProblem(lm, workload.Figure5Workload())

	m, err := mapping.MapAndCheck(context.Background(), mapping.SortSelectSwap{}, p)
	if err != nil {
		panic(err)
	}
	ev := p.Evaluate(m)
	fmt.Printf("max-APL: %.4f cycles\n", ev.MaxAPL)
	fmt.Printf("dev-APL: %.4f\n", ev.DevAPL)
	// Output:
	// max-APL: 10.3375 cycles
	// dev-APL: 0.0000
}

// Global minimizes overall latency and, on this symmetric instance,
// happens to coincide with the balanced optimum.
func ExampleGlobal() {
	lm := model.MustNew(mesh.MustNew(4, 4), model.Figure5Params())
	p := core.MustNewProblem(lm, workload.Figure5Workload())

	m, err := mapping.MapAndCheck(context.Background(), mapping.Global{}, p)
	if err != nil {
		panic(err)
	}
	fmt.Printf("g-APL: %.4f cycles\n", p.Evaluate(m).GlobalAPL)
	// Output:
	// g-APL: 10.3375 cycles
}
