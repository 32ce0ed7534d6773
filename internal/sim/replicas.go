package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"obm/internal/engine"
	"obm/internal/obs"
)

// Replica-runner metrics: completed/failed job counts and per-job busy
// time (the histogram's sum is total worker busy seconds; divide by
// wall time for utilization). Recording happens once per replica job —
// far off the simulator's per-cycle hot path.
var (
	mJobsCompleted = obs.Default().Counter("sim.replicas.jobs.completed")
	mJobsFailed    = obs.Default().Counter("sim.replicas.jobs.failed")
	mJobSeconds    = obs.Default().Timer("sim.replicas.job.seconds")
)

// runJob executes one replica job with metrics around it. A panic
// becomes the job's error: unrecovered on a worker goroutine it would
// kill the process.
func runJob[T any](ctx context.Context, i int, job func(ctx context.Context, i int) (T, error)) (v T, err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v, err = zero, fmt.Errorf("sim: replica job %d panicked: %v\n%s", i, r, debug.Stack())
		}
		mJobSeconds.Since(start)
		if err != nil {
			mJobsFailed.Inc()
		} else {
			mJobsCompleted.Inc()
		}
	}()
	return job(ctx, i)
}

// RunReplicas runs n independent jobs on a pool of min(GOMAXPROCS, n)
// goroutines and returns their results in job-index order. A job is
// any self-contained unit — a seeded simulation replica, one
// configuration of a paper experiment, one remapping scheme — and must
// share no mutable state with its siblings (build its own Network; the
// simulator types are not safe for concurrent use). That share-nothing
// decomposition keeps the output bit-identical whatever the core
// count: every job writes only its own slot. Jobs that fail contribute
// a zero result; the errors are joined. A job that panics fails the
// same way: its error carries the panic value and stack.
//
// Cancellation: once ctx is done no further job starts, and each
// in-flight job sees the same ctx (jobs are expected to poll it and
// unwind promptly). Completed jobs are still returned in their slots;
// the joined error then includes the ctx.Err() so callers can
// distinguish a cancelled batch from job failures while keeping the
// partial results. Progress (jobs completed / n) is reported to the
// context's engine sink, if any; after cancellation the terminal event
// reports against the dispatched count — completed/dispatched, not k/n
// with k < n — so no sink is left believing undispatched work is still
// pending.
func RunReplicas[T any](ctx context.Context, n int, job func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	rep := engine.StartStage(ctx, "replicas")
	out := make([]T, n)
	errs := make([]error, n, n+1)
	idx := make(chan int)
	var wg sync.WaitGroup
	var done sync.Mutex // guards completed under the progress report
	completed := 0
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = runJob(ctx, i, job)
				done.Lock()
				completed++
				c := completed
				done.Unlock()
				rep.Report(c, n)
			}
		}()
	}
	// A select with both cases ready picks one at random, so ctx is
	// checked before every send: a cancelled batch starts no new job.
	dispatched := 0
	for dispatched < n && ctx.Err() == nil {
		select {
		case idx <- dispatched:
			dispatched++
		case <-ctx.Done():
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// Every dispatched job has finished (workers drained the channel
		// before wg.Wait returned), so the terminal progress event is
		// completed/dispatched — a closed stage, not pending work.
		rep.Finish(completed, dispatched)
		errs = append(errs, fmt.Errorf("sim: replicas interrupted after dispatching %d/%d: %w", dispatched, n, err))
	} else {
		rep.Finish(n, n)
	}
	return out, errors.Join(errs...)
}
