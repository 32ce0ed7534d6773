package engine

import (
	"context"
	"testing"
	"time"
)

// TestFinishMarksFinalAndSurvivesThrottle is the Finish-is-never-lost
// contract: a Finish immediately after a Report must pass a spacing
// throttle that would drop any ordinary event, because Finish events
// carry Final.
func TestFinishMarksFinalAndSurvivesThrottle(t *testing.T) {
	var sink recordSink
	// An hour-long spacing interval: after the first Report consumes the
	// allowance, nothing ordinary can pass again within the test.
	th := Throttled(&sink, time.Hour)
	ctx := WithSink(context.Background(), th)
	rep := StartStage(ctx, "stage")
	rep.Report(1, 10) // first event always passes
	rep.Report(5, 10) // dropped by spacing
	rep.Finish(10, 10)
	evs := sink.all()
	if len(evs) != 2 {
		t.Fatalf("got %d events %+v, want first Report + Finish", len(evs), evs)
	}
	if evs[0].Final || evs[0].Done != 1 {
		t.Errorf("first event = %+v, want ordinary Done=1", evs[0])
	}
	last := evs[1]
	if !last.Final || last.Done != 10 || last.Total != 10 {
		t.Errorf("final event = %+v, want Final with Done=Total=10", last)
	}
}

// TestThrottledPassesSkippedAndFinal checks the two unconditional
// classes pass a saturated throttle while ordinary events are dropped.
func TestThrottledPassesSkippedAndFinal(t *testing.T) {
	var sink recordSink
	th := Throttled(&sink, time.Hour)
	th.Event(Progress{Stage: "a", Done: 1}) // consumes the spacing allowance
	th.Event(Progress{Stage: "b", Done: 2}) // dropped
	th.Event(Progress{Stage: "hit", Skipped: true, Done: 1, Total: 1})
	th.Event(Progress{Stage: "a", Done: 3, Final: true})
	evs := sink.all()
	if len(evs) != 3 {
		t.Fatalf("got %d events %+v, want 3", len(evs), evs)
	}
	if !evs[1].Skipped || !evs[2].Final {
		t.Errorf("events = %+v, want skipped then final", evs)
	}
}

// TestThrottledDegenerateIntervals: nil sink and non-positive interval
// follow the package conventions.
func TestThrottledDegenerateIntervals(t *testing.T) {
	if Throttled(nil, time.Second) != nil {
		t.Error("Throttled(nil) should be nil")
	}
	var sink recordSink
	th := Throttled(&sink, 0)
	for i := 0; i < 10; i++ {
		th.Event(Progress{Done: i})
	}
	if got := len(sink.all()); got != 10 {
		t.Errorf("zero interval dropped events: %d/10", got)
	}
}
