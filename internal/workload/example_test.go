package workload_test

import (
	"fmt"

	"obm/internal/workload"
)

// Build one of the paper's evaluation configurations and inspect its
// Table 3 statistics.
func ExampleConfig() {
	w, err := workload.Config("C1")
	if err != nil {
		panic(err)
	}
	rs := w.ComputeRateStats()
	fmt.Printf("%d applications, %d threads\n", w.NumApps(), w.NumThreads())
	fmt.Printf("cache rate mean %.3f (paper target 7.008)\n", rs.Cache.Mean)
	// Output:
	// 4 applications, 64 threads
	// cache rate mean 7.008 (paper target 7.008)
}
