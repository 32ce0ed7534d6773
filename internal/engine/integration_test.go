// Integration tests for the engine contract across real layers: the
// external test package imports mapping and sim (both of which import
// engine), exercising deadline expiry mid-anneal, cancellation during
// replica sharding, and progress-sink event ordering end to end.
package engine_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/sim"
	"obm/internal/workload"
)

func c1Problem(t testing.TB) *core.Problem {
	t.Helper()
	lm := model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
	return core.MustNewProblem(lm, workload.MustConfig("C1"))
}

// orderedSink records events and is safe for concurrent reporters.
type orderedSink struct {
	mu     sync.Mutex
	events []engine.Progress
}

func (s *orderedSink) Event(p engine.Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, p)
}

func (s *orderedSink) snapshot() []engine.Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]engine.Progress(nil), s.events...)
}

// TestDeadlineStopsAnnealingMidRun gives simulated annealing an
// iteration budget that cannot finish inside the deadline and checks it
// unwinds with a DeadlineExceeded-wrapped error, promptly.
func TestDeadlineStopsAnnealingMidRun(t *testing.T) {
	p := c1Problem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := mapping.Annealing{Iters: 50_000_000, Seed: 1}.Map(ctx, p)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("50M-iteration anneal finished under a 50ms deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "annealing: interrupted") {
		t.Errorf("error %v missing annealing interruption context", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("anneal took %v to notice a 50ms deadline", elapsed)
	}
}

// TestCancelDuringRunReplicas cancels after the first replica completes
// and checks the finished work is kept while the batch reports the
// interruption.
func TestCancelDuringRunReplicas(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := make(chan struct{})
	var once sync.Once
	vals, err := sim.RunReplicas(ctx, 8, 2, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			once.Do(func() { close(first); cancel() })
			return 100, nil
		}
		select {
		case <-first:
		case <-time.After(5 * time.Second):
			t.Error("replica never saw the first finish")
		}
		// Later replicas honour the cancelled context like a real
		// simulation poll would.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return 100 + i, nil
	})
	if err == nil {
		t.Fatal("cancelled replica batch returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "replicas interrupted") {
		t.Errorf("error %v missing replica interruption context", err)
	}
	// Results come back in-slot (len == n always); completed replicas
	// keep their values, interrupted ones stay zero.
	if len(vals) != 8 {
		t.Fatalf("got %d slots, want 8", len(vals))
	}
	if vals[0] != 100 {
		t.Errorf("completed replica 0 lost its value: %d", vals[0])
	}
	completed := 0
	for _, v := range vals {
		if v != 0 {
			completed++
		}
	}
	if completed == 8 {
		t.Error("all 8 replicas completed despite cancellation")
	}
}

// TestProgressSinkSeesOrderedStageEvents runs a real anneal with a sink
// installed and checks the stage's events arrive with monotonically
// non-decreasing Done and Elapsed, ending in the Finish event.
func TestProgressSinkSeesOrderedStageEvents(t *testing.T) {
	p := c1Problem(t)
	sink := &orderedSink{}
	ctx := engine.WithSink(context.Background(), sink)
	sa := mapping.Annealing{Iters: 30_000, Seed: 2}
	if _, err := sa.Map(ctx, p); err != nil {
		t.Fatal(err)
	}
	events := sink.snapshot()
	if len(events) == 0 {
		t.Fatal("no progress events reached the sink")
	}
	prevDone, prevElapsed := -1, time.Duration(-1)
	for i, e := range events {
		if e.Stage != sa.Name() {
			t.Errorf("event %d: stage %q, want %q", i, e.Stage, sa.Name())
		}
		if e.Total != sa.Iters {
			t.Errorf("event %d: total %d, want %d", i, e.Total, sa.Iters)
		}
		if e.Done < prevDone {
			t.Errorf("event %d: done went backwards (%d after %d)", i, e.Done, prevDone)
		}
		if e.Elapsed < prevElapsed {
			t.Errorf("event %d: elapsed went backwards (%v after %v)", i, e.Elapsed, prevElapsed)
		}
		prevDone, prevElapsed = e.Done, e.Elapsed
	}
	if last := events[len(events)-1]; last.Done != sa.Iters {
		t.Errorf("final event done=%d, want %d (Finish must always emit)", last.Done, sa.Iters)
	}
	// The identical run without a sink must produce the identical
	// mapping: progress reporting cannot perturb the random stream.
	plain, err := sa.Map(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	withSink, err := sa.Map(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != withSink[i] {
			t.Fatalf("tile %d differs with sink installed: %d vs %d", i, plain[i], withSink[i])
		}
	}
}
