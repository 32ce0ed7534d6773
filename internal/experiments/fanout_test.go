package experiments

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"obm/internal/scenario"
)

// fanOutCases are experiments that run independent work side by side:
// the first four fan simulations out over sim.RunReplicas, gap fans
// its configurations out with parallelConfigs, and dynstream and
// dynamic run each remapping scheme as its own sim.RunReplicas job.
// tail runs once at full budget so its mappers' replicas really form
// one flat multi-replica batch.
var fanOutCases = []struct {
	id string
	o  Options
}{
	{"congestion", quickOpts()},
	{"tail", Options{Seed: 1}},
	{"validate", Options{Quick: true, Seed: 1, Configs: []string{"C1", "C4", "C7"}}},
	{"burst", quickOpts()},
	{"gap", quickOpts()},
	{"dynstream", quickOpts()},
	{"dynamic", quickOpts()},
}

// TestSimFanOutIndependentOfCores checks a fanned-out experiment's
// output is a function of its request alone: one core and four cores
// render and encode the same bytes. Each run starts from an empty
// artifact store, so the concurrent jobs also race to compute the
// shared mapper artifacts.
func TestSimFanOutIndependentOfCores(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations; skip under -short")
	}
	t.Cleanup(func() { scenario.ResetShared() })
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range fanOutCases {
		t.Run(c.id, func(t *testing.T) {
			r, err := Get(c.id)
			if err != nil {
				t.Fatal(err)
			}
			var render [2]string
			var enc [2][]byte
			for k, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				scenario.ResetShared()
				res, err := r.Run(context.Background(), c.o)
				if err != nil {
					t.Fatalf("GOMAXPROCS(%d): %v", procs, err)
				}
				render[k] = res.Render()
				if enc[k], err = res.JSON(); err != nil {
					t.Fatal(err)
				}
			}
			if render[0] != render[1] {
				t.Errorf("Render() differs between 1 and 4 cores, first at byte %d", firstDiff(render[0], render[1]))
			}
			if string(enc[0]) != string(enc[1]) {
				t.Errorf("JSON() differs between 1 and 4 cores, first at byte %d", firstDiff(string(enc[0]), string(enc[1])))
			}
		})
	}
}

// TestSimFanOutCancelled checks a context cancelled before Run stops
// every registered experiment: it fails with an error that wraps
// context.Canceled, or it returns exactly the result an uncancelled
// run renders (the job service checks the context before each
// experiment, so a runner that never looks at it is still stopped).
func TestSimFanOutCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range All() {
		res, err := r.Run(ctx, quickOpts())
		if errors.Is(err, context.Canceled) {
			continue
		}
		if err != nil {
			t.Errorf("%s: err = %v, want context.Canceled", r.ID(), err)
			continue
		}
		want, err := r.Run(context.Background(), quickOpts())
		if err != nil {
			t.Fatalf("%s: uncancelled run: %v", r.ID(), err)
		}
		if got := res.Render(); got != want.Render() {
			t.Errorf("%s: cancelled run returned a result that differs from an uncancelled one, first at byte %d",
				r.ID(), firstDiff(got, want.Render()))
		}
	}
}
