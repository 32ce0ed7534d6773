package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/obs"
	"obm/internal/stats"
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

// runJob executes one replica job with metrics around it.
func runJob[T any](ctx context.Context, i int, job func(ctx context.Context, i int) (T, error)) (T, error) {
	start := time.Now()
	v, err := job(ctx, i)
	mJobSeconds.Since(start)
	if err != nil {
		mJobsFailed.Inc()
	} else {
		mJobsCompleted.Inc()
	}
	return v, err
}

// RunReplicas runs n independent jobs across at most workers goroutines
// and returns their results in job-index order. workers <= 0 selects
// GOMAXPROCS. Each job must be self-contained (build its own Network;
// the simulator types are not safe for concurrent use) — sharding whole
// seeded replicas is the share-nothing decomposition that keeps the
// parallel run bit-identical to running the same jobs serially. Jobs
// that fail contribute a zero result; the errors are joined.
//
// Cancellation: when ctx is done, no further jobs are dispatched and
// each in-flight job sees the same ctx (jobs are expected to poll it
// and unwind promptly). Completed replicas are still returned in their
// slots; the joined error then includes the ctx.Err() so callers can
// distinguish a cancelled batch from job failures while keeping the
// partial results. Progress (replicas completed / n) is reported to
// the context's engine sink, if any; after cancellation the terminal
// event reports against the dispatched count — completed/dispatched,
// not k/n with k < n — so no sink is left believing undispatched work
// is still pending.
func RunReplicas[T any](ctx context.Context, n, workers int, job func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	rep := engine.StartStage(ctx, "replicas")
	out := make([]T, n)
	errs := make([]error, n, n+1)
	dispatched := n
	completed := 0
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				dispatched = i
				break
			}
			out[i], errs[i] = runJob(ctx, i, job)
			completed = i + 1
			rep.Report(completed, n)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		var done sync.Mutex // guards completed under the progress report
		for w := 0; w < workers; w++ {
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
	dispatch:
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-ctx.Done():
				dispatched = i
				break dispatch
			}
		}
		close(idx)
		wg.Wait()
	}
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

// RateDrivenReplicas runs replicas independent RateDriven simulations
// of (p, m), identical except for the injector seed (stats.SplitSeed
// of cfg.Seed and the replica index; replica 0 keeps cfg.Seed), spread
// over the machine's cores. Results come back in replica order
// regardless of completion order, so downstream aggregation is
// deterministic.
func RateDrivenReplicas(ctx context.Context, p *core.Problem, m core.Mapping, cfg RateDrivenConfig, replicas int) ([]Result, error) {
	return RunReplicas(ctx, replicas, 0, func(ctx context.Context, i int) (Result, error) {
		c := cfg
		c.Seed = stats.SplitSeed(cfg.Seed, i)
		return RateDriven(ctx, p, m, c)
	})
}
