package engine

import (
	"context"
	"sync"
	"testing"
)

// recordSink collects events; safe for concurrent use.
type recordSink struct {
	mu     sync.Mutex
	events []Progress
}

func (s *recordSink) Event(p Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, p)
}

func (s *recordSink) all() []Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Progress(nil), s.events...)
}

func TestSinkPlumbing(t *testing.T) {
	ctx := context.Background()
	if got := SinkOf(ctx); got != nil {
		t.Fatalf("SinkOf(background) = %v, want nil", got)
	}
	if WithSink(ctx, nil) != ctx {
		t.Error("WithSink(nil) should return ctx unchanged")
	}
	var sink recordSink
	ctx = WithSink(ctx, &sink)
	got := SinkOf(ctx)
	if got == nil {
		t.Fatal("SinkOf lost the sink")
	}
	got.Event(Progress{Stage: "x", Done: 1, Total: 2})
	if evs := sink.all(); len(evs) != 1 || evs[0].Stage != "x" {
		t.Fatalf("events = %+v", evs)
	}
}

func TestNilReporterIsFreeNoop(t *testing.T) {
	rep := StartStage(context.Background(), "none")
	if rep != nil {
		t.Fatalf("StartStage without sink = %v, want nil", rep)
	}
	rep.Report(1, 10) // must not panic
	rep.Finish(10, 10)
}

func TestReporterOrderingAndThrottle(t *testing.T) {
	var sink recordSink
	ctx := WithSink(context.Background(), &sink)
	rep := StartStage(ctx, "loop")
	const n = 5000
	for i := 1; i <= n; i++ {
		rep.Report(i, n)
	}
	rep.Finish(n, n)
	evs := sink.all()
	if len(evs) == 0 {
		t.Fatal("no events emitted")
	}
	// First Report always passes the throttle; Finish always emits.
	if evs[0].Done != 1 {
		t.Errorf("first event Done = %d, want 1", evs[0].Done)
	}
	last := evs[len(evs)-1]
	if last.Done != n || last.Total != n {
		t.Errorf("final event = %+v, want Done=Total=%d", last, n)
	}
	// Events arrive in issue order with monotonically non-decreasing
	// Done and Elapsed.
	for i := 1; i < len(evs); i++ {
		if evs[i].Done < evs[i-1].Done {
			t.Errorf("event %d Done %d < previous %d", i, evs[i].Done, evs[i-1].Done)
		}
		if evs[i].Elapsed < evs[i-1].Elapsed {
			t.Errorf("event %d Elapsed went backwards", i)
		}
		if evs[i].Stage != "loop" {
			t.Errorf("event %d stage = %q", i, evs[i].Stage)
		}
	}
	// The throttle must have dropped the bulk of the 5000 reports.
	if len(evs) > n/2 {
		t.Errorf("throttle ineffective: %d events for %d reports", len(evs), n)
	}
}
