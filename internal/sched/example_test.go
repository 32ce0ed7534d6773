package sched_test

import (
	"context"
	"fmt"

	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/sched"
	"obm/internal/workload"
)

// Run a small arrival/departure timeline under the remap-on-change
// policy (Section IV.B of the paper).
func ExampleStreamRunner_Run() {
	lm := model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
	app := func(cfg string, idx int, name string) *workload.Application {
		w := workload.MustConfig(cfg)
		a := w.Apps[idx]
		a.Name = name
		return &a
	}
	sc := sched.Scenario{
		Events: []sched.Event{
			{Time: 0, Arrive: app("C1", 0, "light")},
			{Time: 0, Arrive: app("C1", 3, "heavy")},
			{Time: 100, Depart: "light"},
			{Time: 100, Arrive: app("C3", 3, "heavier")},
		},
		End: 200,
	}
	r, err := sched.NewStreamRunner(lm, sched.StreamConfig{
		Placement: &sched.FirstFitPlacement{},
		Policy:    sched.OnChange{},
		Remapper:  sched.FullRemap{Mapper: mapping.SortSelectSwap{}},
	})
	if err != nil {
		panic(err)
	}
	met, err := r.Run(context.Background(), sched.NewSliceSource(sc))
	if err != nil {
		panic(err)
	}
	fmt.Println("remaps:", met.Remaps)
	fmt.Println("balanced:", met.TimeWeightedDevAPL < 0.5)
	// The two Time-0 arrivals coalesce into one remap, as do the
	// simultaneous departure+arrival at Time 100; both re-solves
	// improve max-APL, so both are adopted.
	// Output:
	// remaps: 2
	// balanced: true
}
