package service

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"time"

	"obm/internal/artifact"
	"obm/internal/engine"
	"obm/internal/experiments"
	"obm/internal/obs"
	"obm/internal/scenario"
)

// ExecConfig tunes one Execute call. The zero value runs silently and
// embeds no metrics block; deadlines come from ctx.
type ExecConfig struct {
	// Sink, when non-nil, receives the run's progress events: the
	// "batch" stage (experiments completed / total) and every stage the
	// experiments report below it.
	Sink engine.Sink
	// OnResult, when non-nil, streams each experiment's result as soon
	// as it completes — successes and failures both. raw is the
	// experiment's JSON document on success (nil on failure), so
	// streaming consumers never re-encode.
	OnResult func(res ExperimentResult, raw json.RawMessage)
	// Metrics embeds an obs.Default() snapshot (taken after the run) in
	// the envelope. Process-global and cumulative: meaningful for a
	// one-shot host like cmd/obmsim, deliberately off for daemon jobs,
	// whose envelopes must not depend on what ran before them.
	Metrics bool
}

// ExperimentResult records one experiment that ran, finished or failed.
type ExperimentResult struct {
	// ID is the experiment's registry ID.
	ID string
	// Result is what the experiment returned; meaningful only when Err
	// is nil.
	Result experiments.Result
	// Err is the experiment's error, nil on success. A panic becomes an
	// error carrying the panic value and stack.
	Err error
	// Elapsed is the experiment's wall time.
	Elapsed time.Duration
}

// Outcome is everything one Execute produced.
type Outcome struct {
	// Entries holds the successful experiments' envelope slots, in
	// execution order.
	Entries []ExperimentEntry
	// Results holds every experiment that ran, including a failed last
	// one.
	Results []ExperimentResult
	// Envelope is the assembled obmsim.run/v1 document over Entries.
	Envelope []byte
	// Metrics is the snapshot embedded in the envelope when
	// ExecConfig.Metrics was set (nil otherwise). Callers that also
	// print the metrics render this block, so the printed table and the
	// envelope can never disagree.
	Metrics *MetricsBlock
	// Stats is the artifact-store traffic this run generated: the delta
	// of the shared store's counters across the run. Exact when runs
	// don't overlap in the process (the CLI, or a Manager with
	// Concurrency 1); an approximation when they do.
	Stats artifact.Stats
}

// Execute runs a request's experiments under ctx and assembles the
// result envelope. It is the one execution path behind every frontend:
// resolve the request, run the experiments in order (streaming each
// result to cfg.OnResult), collect the successful results' JSON
// documents, and build the envelope.
//
// The returned error is the first experiment failure or a
// ctx.Err()-wrapped interruption; the Outcome is returned alongside
// it, so callers keep the completed prefix of an interrupted run —
// exactly the partial-results contract cmd/obmsim has always had.
func Execute(ctx context.Context, req Request, cfg ExecConfig) (*Outcome, error) {
	req = req.Normalized()
	opts, runners, err := req.Resolve()
	if err != nil {
		return nil, err
	}

	out := &Outcome{}
	before := scenario.Shared().StoreStats()
	runErr := out.run(ctx, opts, runners, cfg)
	out.Stats = statsDelta(before, scenario.Shared().StoreStats())

	if cfg.Metrics {
		out.Metrics = NewMetricsBlock(obs.Default().Snapshot())
	}
	env, envErr := Envelope(req, out.Entries, out.Metrics)
	out.Envelope = env
	if runErr != nil {
		return out, runErr
	}
	return out, envErr
}

// run executes runners in order under ctx, appending each one's result
// to out.Results and each success's document to out.Entries. It checks
// ctx before every experiment, reports the "batch" stage, times each
// experiment under engine.job.<id>.seconds, and stops at the first
// failure.
func (out *Outcome) run(ctx context.Context, opts experiments.Options, runners []experiments.Runner, cfg ExecConfig) error {
	ctx = engine.WithSink(ctx, cfg.Sink)
	rep := engine.StartStage(ctx, "batch")
	n := len(runners)
	for i, r := range runners {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("service: batch interrupted after %d/%d experiments: %w", i, n, err)
		}
		res := runOne(ctx, r, opts)
		var raw json.RawMessage
		if res.Err == nil {
			if raw, res.Err = res.Result.JSON(); res.Err != nil {
				res.Err = fmt.Errorf("encoding result: %w", res.Err)
			} else {
				out.Entries = append(out.Entries, ExperimentEntry{ID: res.ID, Title: r.Title(), Result: raw})
			}
		}
		out.Results = append(out.Results, res)
		if cfg.OnResult != nil {
			cfg.OnResult(res, raw)
		}
		rep.Report(i+1, n)
		if res.Err != nil {
			if ctx.Err() != nil {
				// The experiment died of the caller's deadline or cancel;
				// report how far the batch got.
				return fmt.Errorf("service: batch interrupted during experiment %d/%d: %w", i+1, n, res.Err)
			}
			return fmt.Errorf("service: experiment %s: %w", res.ID, res.Err)
		}
	}
	rep.Finish(n, n)
	return nil
}

// runOne runs one experiment and times it, converting a panic into an
// error that carries the panic value and stack. Lower layers re-raise
// panics (programmer error stays loud); this boundary turns them into
// a failed result so the run's bookkeeping — OnResult streaming, the
// batch stage, the partial envelope — stays consistent.
func runOne(ctx context.Context, r experiments.Runner, opts experiments.Options) (res ExperimentResult) {
	res.ID = r.ID()
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			res.Result, res.Err = nil, fmt.Errorf("panicked: %v\n%s", p, debug.Stack())
		}
		res.Elapsed = time.Since(start)
		obs.Default().Timer("engine.job." + res.ID + ".seconds").Observe(res.Elapsed)
	}()
	res.Result, res.Err = r.Run(ctx, opts)
	return res
}

// statsDelta subtracts the counter fields of two store-stats readings;
// occupancy fields (entries, bytes) keep the after-reading since they
// are levels, not counters.
func statsDelta(before, after artifact.Stats) artifact.Stats {
	return artifact.Stats{
		MemHits:       after.MemHits - before.MemHits,
		DiskHits:      after.DiskHits - before.DiskHits,
		Computed:      after.Computed - before.Computed,
		DiskEvictions: after.DiskEvictions - before.DiskEvictions,
		DiskCorrupt:   after.DiskCorrupt - before.DiskCorrupt,
		DiskSchema:    after.DiskSchema - before.DiskSchema,
		DiskEntries:   after.DiskEntries,
		DiskBytes:     after.DiskBytes,
	}
}
