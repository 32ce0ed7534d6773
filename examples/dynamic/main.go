// Dynamic remapping: Section IV.B of the paper argues that the O(N^3)
// runtime of sort-select-swap makes it usable when applications come
// and go at runtime — collect (c_j, m_j) statistics for an interval,
// re-solve, remap. This example simulates such a lifecycle: workload
// epochs where applications are replaced, comparing "remap every epoch
// with SSS" against "keep the initial Global mapping".
//
// Run with: go run ./examples/dynamic
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/workload"
)

func main() {
	lm, err := model.New(mesh.MustNew(8, 8), model.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}

	// Epochs: every epoch one application finishes and a new one with a
	// different intensity profile takes its four slots.
	epochs := []string{"C1", "C3", "C5", "C7", "C8"}

	var static core.Mapping // Global mapping frozen at epoch 0
	fmt.Println("epoch  workload  static-Global(max/dev)   SSS-remap(max/dev)   remap-runtime")
	for e, cfg := range epochs {
		p, err := core.NewProblem(lm, workload.MustConfig(cfg))
		if err != nil {
			log.Fatal(err)
		}
		if static == nil {
			static, err = mapping.MapAndCheck(context.Background(), mapping.Global{}, p)
			if err != nil {
				log.Fatal(err)
			}
		}
		start := time.Now()
		remap, err := mapping.MapAndCheck(context.Background(), mapping.SortSelectSwap{}, p)
		if err != nil {
			log.Fatal(err)
		}
		remapTime := time.Since(start)
		evStatic := p.Evaluate(static)
		evRemap := p.Evaluate(remap)
		fmt.Printf("%4d   %-8s %8.2f / %-8.4f %12.2f / %-8.4f %12v\n",
			e, cfg, evStatic.MaxAPL, evStatic.DevAPL, evRemap.MaxAPL, evRemap.DevAPL,
			remapTime.Round(100*time.Microsecond))
	}
	fmt.Println("\nA mapping frozen for the first workload drifts out of balance as")
	fmt.Println("applications change; re-running sort-select-swap each epoch (a few")
	fmt.Println("milliseconds for 64 tiles) keeps every epoch balanced.")
}
