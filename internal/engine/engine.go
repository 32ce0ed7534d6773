// Package engine is the progress plumbing every long-running layer of
// the repository shares: the iterative mappers (Monte Carlo, SA,
// cluster SA, SSS refinement), the experiment runners, and the
// replica-sharded simulator all accept a context.Context, poll it for
// cancellation and deadlines, and report structured progress through
// this package — a pluggable Sink carried in the context receives
// Progress events (stage, done/total, elapsed) so a CLI ticker, a log
// shipper, or a serving API can observe work in flight without the
// workers knowing who is watching.
//
// The package is context plumbing only: Sink, Reporter, Throttled and
// ReportSkipped. The loop over a request's experiments lives in
// service.Execute, and the per-job event numbering in the service's
// Journal.
//
// The design rule that keeps results reproducible: context plumbing
// must never perturb an algorithm's random stream. Cancellation polls
// and progress reports read the clock and the context only; a run that
// is never cancelled produces bit-identical output to the pre-context
// code path.
package engine

import (
	"context"
	"sync"
	"time"
)

// Progress is one structured progress event for a named stage.
type Progress struct {
	// Seq is the event's per-job sequence number, stamped by the job
	// service's journal as it buffers the event (1, 2, 3, … with no
	// gaps), so a consumer that saw event Seq=n can poll "everything
	// after n" and resume without loss. Producers leave it 0.
	Seq uint64
	// Stage names the unit of work, e.g. "MC(10000)", "fig9", or
	// "replicas".
	Stage string
	// Done counts completed steps; Total is the known step count (0 when
	// unknown or open-ended).
	Done, Total int
	// Elapsed is the time since the stage started.
	Elapsed time.Duration
	// Skipped marks a stage whose work was served from a cache (the
	// scenario artifact cache emits one such event per hit) rather than
	// recomputed. Observers can count hits or render the stage as
	// skipped; Done/Total are 1/1.
	Skipped bool
	// Final marks the unthrottled stage-completion event emitted by
	// Reporter.Finish. Spacing throttles (Throttled) must never drop a
	// Final event: it is the only event guaranteed to carry the stage's
	// terminal Done/Total.
	Final bool
}

// ReportSkipped emits one unthrottled Progress event marking stage as
// skipped (served from cache) to the sink carried by ctx, if any.
func ReportSkipped(ctx context.Context, stage string) {
	s := SinkOf(ctx)
	if s == nil {
		return
	}
	s.Event(Progress{Stage: stage, Done: 1, Total: 1, Skipped: true})
}

// Sink receives progress events. Implementations must be safe for
// concurrent use: the workers of a sim.RunReplicas pool report through
// one sink.
type Sink interface {
	Event(Progress)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Progress)

// Event implements Sink.
func (f SinkFunc) Event(p Progress) { f(p) }

// sinkKey carries the Sink through a context.
type sinkKey struct{}

// WithSink returns a context that carries s; workers down the call
// chain report progress to it via StartStage. A nil sink returns ctx
// unchanged.
func WithSink(ctx context.Context, s Sink) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, sinkKey{}, s)
}

// SinkOf returns the sink carried by ctx, or nil if none.
func SinkOf(ctx context.Context) Sink {
	s, _ := ctx.Value(sinkKey{}).(Sink)
	return s
}

// DefaultReportInterval is the minimum spacing between throttled
// Reporter events. Tight loops may call Report every few hundred
// iterations; the reporter forwards at most one event per interval
// (plus the first and any Finish).
const DefaultReportInterval = 100 * time.Millisecond

// Reporter emits throttled Progress events for one stage. Obtain one
// with StartStage; a nil *Reporter (no sink in the context) is a valid
// receiver for which every method is a free no-op, so hot loops report
// unconditionally.
type Reporter struct {
	sink  Sink
	stage string
	start time.Time

	mu       sync.Mutex
	last     time.Time
	interval time.Duration
}

// StartStage returns a Reporter for stage drawing its sink from ctx,
// or nil when the context carries no sink.
func StartStage(ctx context.Context, stage string) *Reporter {
	s := SinkOf(ctx)
	if s == nil {
		return nil
	}
	return &Reporter{sink: s, stage: stage, start: time.Now(), interval: DefaultReportInterval}
}

// Report emits a throttled progress event. The first call always
// emits; later calls emit at most once per DefaultReportInterval.
// Safe for concurrent use.
func (r *Reporter) Report(done, total int) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	if !r.last.IsZero() && now.Sub(r.last) < r.interval {
		r.mu.Unlock()
		return
	}
	r.last = now
	r.mu.Unlock()
	r.sink.Event(Progress{Stage: r.stage, Done: done, Total: total, Elapsed: now.Sub(r.start)})
}

// Finish emits a final unthrottled event marking the stage complete.
// The event carries Final, so downstream spacing throttles (Throttled,
// a CLI ticker) know they must deliver it even if an ordinary Report
// just passed: dropping it would leave consumers without the stage's
// terminal Done/Total.
func (r *Reporter) Finish(done, total int) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.last = now
	r.mu.Unlock()
	r.sink.Event(Progress{Stage: r.stage, Done: done, Total: total, Elapsed: now.Sub(r.start), Final: true})
}

// Throttled wraps s with a global spacing filter: at most one ordinary
// event per interval is forwarded, keeping a human-facing sink readable
// when many stages report concurrently. Two event classes always pass
// regardless of spacing — Skipped (cache hits are rare and are the
// run's main observability signal) and Final (the stage-completion
// event from Reporter.Finish, which consumers rely on seeing). A
// non-positive interval forwards everything.
func Throttled(s Sink, interval time.Duration) Sink {
	if s == nil {
		return nil
	}
	if interval <= 0 {
		return s
	}
	return &throttledSink{sink: s, interval: interval}
}

type throttledSink struct {
	sink     Sink
	interval time.Duration

	mu   sync.Mutex
	last time.Time
}

func (t *throttledSink) Event(p Progress) {
	if !p.Skipped && !p.Final {
		now := time.Now()
		t.mu.Lock()
		if !t.last.IsZero() && now.Sub(t.last) < t.interval {
			t.mu.Unlock()
			return
		}
		t.last = now
		t.mu.Unlock()
	}
	t.sink.Event(p)
}
