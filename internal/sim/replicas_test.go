package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"obm/internal/engine"
	"obm/internal/obs"
)

// recordingSink captures every progress event for one stage.
type recordingSink struct {
	mu     sync.Mutex
	events []engine.Progress
}

func (s *recordingSink) Event(p engine.Progress) {
	s.mu.Lock()
	s.events = append(s.events, p)
	s.mu.Unlock()
}

func (s *recordingSink) last() (engine.Progress, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) == 0 {
		return engine.Progress{}, false
	}
	return s.events[len(s.events)-1], true
}

// TestReplicasCancelledProgressReportsDispatched is the regression test
// for the terminal-progress fix: when cancellation stops dispatch at
// k < n, the final event must report against the dispatched count (a
// closed k'/k' stage), never k'/n as if the undispatched replicas were
// still pending.
func TestReplicasCancelledProgressReportsDispatched(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			runtime.GOMAXPROCS(workers)
			sink := &recordingSink{}
			ctx, cancel := context.WithCancel(engine.WithSink(context.Background(), sink))
			defer cancel()
			const n = 16
			_, err := RunReplicas(ctx, n, func(ctx context.Context, i int) (int, error) {
				if i == 2 {
					cancel() // stop dispatch mid-batch
				}
				return i, nil
			})
			if err == nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			last, ok := sink.last()
			if !ok {
				t.Fatal("no progress events recorded")
			}
			if last.Total >= n {
				t.Errorf("terminal event total = %d, want the dispatched count (< %d)", last.Total, n)
			}
			if last.Done != last.Total {
				t.Errorf("terminal event %d/%d leaves the stage open; every dispatched job had finished",
					last.Done, last.Total)
			}
		})
	}
}

// TestReplicasPreCancelledRunsNothing checks a batch whose context is
// already done starts no job at any core count. A dispatch select that
// is ready on both the send and ctx.Done() picks at random, so this
// runs many batches to catch an occasional leaked start.
func TestReplicasPreCancelledRunsNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var ran atomic.Int64
		for b := 0; b < 5000; b++ {
			_, err := RunReplicas(ctx, 8, func(ctx context.Context, i int) (int, error) {
				ran.Add(1)
				return i, nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("GOMAXPROCS(%d) batch %d: err = %v, want context.Canceled", procs, b, err)
			}
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("GOMAXPROCS(%d): %d jobs ran in 5000 pre-cancelled batches, want 0", procs, n)
		}
	}
}

// TestReplicasUncancelledProgressFinishesFull checks the happy path
// still closes at n/n.
func TestReplicasUncancelledProgressFinishesFull(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sink := &recordingSink{}
	ctx := engine.WithSink(context.Background(), sink)
	if _, err := RunReplicas(ctx, 5, func(ctx context.Context, i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	last, ok := sink.last()
	if !ok {
		t.Fatal("no progress events recorded")
	}
	if last.Done != 5 || last.Total != 5 {
		t.Errorf("terminal event %d/%d, want 5/5", last.Done, last.Total)
	}
}

// TestReplicasMetrics checks the obs counters account for every job:
// completed + failed equals the jobs run, and each job contributed one
// busy-time sample. Parallel workers hammer the registry, so this also
// serves as the cross-subsystem race coverage for obs (make check runs
// this package under -race).
func TestReplicasMetrics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	snapBefore := obs.Default().Snapshot()
	c0, _ := snapBefore.Counter("sim.replicas.jobs.completed")
	f0, _ := snapBefore.Counter("sim.replicas.jobs.failed")
	h0, _ := snapBefore.Histogram("sim.replicas.job.seconds")

	const n = 24
	_, err := RunReplicas(context.Background(), n, func(ctx context.Context, i int) (int, error) {
		if i%6 == 5 {
			return 0, errors.New("synthetic failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected joined synthetic failures")
	}

	snap := obs.Default().Snapshot()
	c1, _ := snap.Counter("sim.replicas.jobs.completed")
	f1, _ := snap.Counter("sim.replicas.jobs.failed")
	h1, _ := snap.Histogram("sim.replicas.job.seconds")
	if got, want := c1-c0, uint64(20); got != want {
		t.Errorf("completed delta = %d, want %d", got, want)
	}
	if got, want := f1-f0, uint64(4); got != want {
		t.Errorf("failed delta = %d, want %d", got, want)
	}
	if got, want := h1.Count-h0.Count, uint64(n); got != want {
		t.Errorf("busy-time samples delta = %d, want %d", got, want)
	}
}

// TestRunReplicasPanicBecomesError checks a panicking job fails alone:
// on a multi-worker pool the panic must not kill the process, the
// other slots keep their results, the joined error names the panic,
// and the job counts as failed.
func TestRunReplicasPanicBecomesError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	f0, _ := obs.Default().Snapshot().Counter("sim.replicas.jobs.failed")
	out, err := RunReplicas(context.Background(), 4, func(_ context.Context, i int) (int, error) {
		if i == 1 {
			panic("replica boom")
		}
		return 10 + i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked: replica boom") {
		t.Fatalf("err = %v, want it to name the panic", err)
	}
	if want := []int{10, 0, 12, 13}; !reflect.DeepEqual(out, want) {
		t.Errorf("results = %v, want %v", out, want)
	}
	f1, _ := obs.Default().Snapshot().Counter("sim.replicas.jobs.failed")
	if f1-f0 != 1 {
		t.Errorf("failed delta = %d, want 1", f1-f0)
	}
}
