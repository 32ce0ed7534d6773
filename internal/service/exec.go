package service

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"obm/internal/artifact"
	"obm/internal/engine"
	"obm/internal/experiments"
	"obm/internal/obs"
	"obm/internal/scenario"
)

// ExecConfig tunes one Execute call. The zero value runs silently with
// no deadline and no metrics block.
type ExecConfig struct {
	// Timeout bounds the whole run; 0 means no deadline beyond ctx.
	Timeout time.Duration
	// Sink, when non-nil, receives the run's progress events (the
	// engine Runner wraps it in a per-run sequencer, so events arrive
	// with monotonic Seq).
	Sink engine.Sink
	// OnResult, when non-nil, streams each experiment's result as soon
	// as it completes — successes and failures both. raw is the
	// experiment's JSON document on success (nil on failure), so
	// streaming consumers never re-encode.
	OnResult func(res engine.Result, raw json.RawMessage)
	// Metrics embeds an obs.Default() snapshot (taken after the run) in
	// the envelope. Process-global and cumulative: meaningful for a
	// one-shot host like cmd/obmsim, deliberately off for daemon jobs,
	// whose envelopes must not depend on what ran before them.
	Metrics bool
}

// Outcome is everything one Execute produced.
type Outcome struct {
	// Entries holds the successful experiments' envelope slots, in
	// execution order.
	Entries []ExperimentEntry
	// Results holds every engine result that ran, including failures.
	Results []engine.Result
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
// resolve the request, run the experiments through the engine batch
// runner (streaming each result to cfg.OnResult), collect the
// successful results' JSON documents, and build the envelope.
//
// The returned error is the batch error (first experiment failure, or
// a ctx.Err()-wrapped interruption) joined with any result-encoding
// failure; the Outcome is returned alongside it, so callers keep the
// completed prefix of an interrupted run — exactly the partial-results
// contract cmd/obmsim has always had.
func Execute(ctx context.Context, req Request, cfg ExecConfig) (*Outcome, error) {
	req = req.Normalized()
	opts, runners, err := req.Resolve()
	if err != nil {
		return nil, err
	}

	jobs := make([]engine.Job, len(runners))
	titles := make(map[string]string, len(runners))
	for i, r := range runners {
		r := r
		titles[r.ID()] = r.Title()
		jobs[i] = engine.Job{
			Name: r.ID(),
			Run:  func(ctx context.Context) (any, error) { return r.Run(ctx, opts) },
		}
	}

	out := &Outcome{}
	var encodeErr error
	before := scenario.Shared().StoreStats()
	runner := engine.Runner{
		Timeout: cfg.Timeout,
		Sink:    cfg.Sink,
		OnResult: func(res engine.Result) {
			var raw json.RawMessage
			if res.Err == nil && encodeErr == nil {
				r := res.Value.(experiments.Result)
				var jerr error
				raw, jerr = r.JSON()
				if jerr != nil {
					encodeErr = fmt.Errorf("service: encoding %s result: %w", res.Name, jerr)
				} else {
					out.Entries = append(out.Entries, ExperimentEntry{ID: res.Name, Title: titles[res.Name], Result: raw})
				}
			}
			if cfg.OnResult != nil {
				cfg.OnResult(res, raw)
			}
		},
	}
	results, runErr := runner.Run(ctx, jobs)
	out.Results = results
	out.Stats = statsDelta(before, scenario.Shared().StoreStats())

	if cfg.Metrics {
		out.Metrics = NewMetricsBlock(obs.Default().Snapshot())
	}
	env, envErr := Envelope(req, out.Entries, out.Metrics)
	out.Envelope = env

	switch {
	case runErr != nil:
		return out, runErr
	case encodeErr != nil:
		return out, encodeErr
	case envErr != nil:
		return out, envErr
	}
	return out, nil
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
