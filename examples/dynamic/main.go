// Dynamic remapping: Section IV.B of the paper argues that the O(N^3)
// runtime of sort-select-swap makes it usable when applications come
// and go at runtime — collect (c_j, m_j) statistics for an interval,
// re-solve, remap. This example replays such a lifecycle through the
// streaming scheduler: workload epochs in which every application of
// one paper configuration departs and the next configuration's arrive,
// comparing "place arrivals on the first free tiles and never remap"
// against "re-solve with SSS at every change".
//
// Run with: go run ./examples/dynamic
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/sched"
	"obm/internal/workload"
)

// epochLen is the duration of one workload epoch on the timeline.
const epochLen = 100

func main() {
	lm, err := model.New(mesh.MustNew(8, 8), model.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}

	// Epochs: at each boundary the running configuration's applications
	// depart and the next configuration's take their tiles.
	epochs := []string{"C1", "C3", "C5", "C7", "C8"}
	var sc sched.Scenario
	var live []string
	for e, cfg := range epochs {
		at := int64(e * epochLen)
		for _, name := range live {
			sc.Events = append(sc.Events, sched.Event{Time: at, Depart: name})
		}
		live = live[:0]
		for _, app := range workload.MustConfig(cfg).Apps {
			app.Name = fmt.Sprintf("%s/%s", cfg, app.Name)
			live = append(live, app.Name)
			sc.Events = append(sc.Events, sched.Event{Time: at, Arrive: &app})
		}
	}
	sc.End = int64(len(epochs) * epochLen)

	fmt.Printf("%d epochs (%v), %d events\n\n", len(epochs), epochs, len(sc.Events))
	fmt.Println("policy      max-APL   dev-APL  remaps  migrations  wall")
	for _, pol := range []sched.Policy{sched.Never{}, sched.OnChange{}} {
		r, err := sched.NewStreamRunner(lm, sched.StreamConfig{
			Placement: &sched.FirstFitPlacement{},
			Policy:    pol,
			Remapper:  sched.FullRemap{Mapper: mapping.SortSelectSwap{}},
		})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		met, err := r.Run(context.Background(), sched.NewSliceSource(sc))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %8.2f %9.4f %7d %11d  %v\n", pol.Name(),
			met.TimeWeightedMaxAPL, met.TimeWeightedDevAPL, met.Remaps, met.Migrations,
			time.Since(start).Round(100*time.Microsecond))
	}
	fmt.Println("\nAPLs are time-weighted over the timeline. Placing each arrival on")
	fmt.Println("whatever tiles are free leaves every epoch out of balance;")
	fmt.Println("re-running sort-select-swap at each change (a few milliseconds for")
	fmt.Println("64 tiles) keeps the chip balanced.")
}
