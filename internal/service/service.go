// Package service is the transport-agnostic job layer between the
// execution substrates (engine, experiments, scenario, artifact, obs)
// and whatever frontend drives them. It owns three things every
// frontend used to hand-roll:
//
//   - Request: the one serializable description of a run — which
//     experiments, quick or full budgets, seed, config subset,
//     objective, stream overrides, and the disk tier's provenance —
//     with fail-fast resolution into experiments.Options and runners;
//   - Execute + Envelope: the shared execution path that turns a
//     Request into the obmsim.run/v1 result envelope. Execute runs the
//     experiments itself, in order, under the caller's context (a ctx
//     check before each, panics turned into failed results, stop at
//     the first failure keeping the completed prefix). Every frontend
//     goes through the same assembly, so a daemon job, a CLI run, and
//     any future transport emit byte-identical envelopes for the same
//     request (the envelope is a pure function of the request and the
//     artifact contents — per-run cache traffic lives in metrics, not
//     in the envelope);
//   - Manager: the submit → queued → running → (done | failed |
//     cancelled) job lifecycle for long-running hosts — per-job IDs, a
//     bounded admission queue with a concurrency limit, a per-job
//     progress journal that numbers events and is polled by cursor,
//     cancellation, result retention, and graceful drain.
//
// cmd/obmsim is a thin synchronous client of Execute; cmd/obmsimd
// fronts a Manager with the HTTP/JSON API in Handler.
package service

import (
	"errors"
	"fmt"
	"strings"

	"obm/internal/core"
	"obm/internal/experiments"
)

// ErrBadRequest wraps every request-resolution failure (unknown
// experiment, malformed objective, unknown config, empty experiment
// list), so transports can map the whole class onto one status code
// (HTTP 400) while the message stays specific.
var ErrBadRequest = errors.New("bad request")

// DefaultCacheSize is the disk-tier byte budget applied when a request
// leaves CacheSize zero — the same 256 MiB default cmd/obmsim has
// always used, now defined once for every frontend.
const DefaultCacheSize int64 = 256 << 20

// Request is the transport-neutral description of one run: the JSON
// body of the daemon's POST /v1/jobs, and what cmd/obmsim assembles
// from its flags. The JSON names match the envelope's options block,
// so a stored request and the envelope it produced read the same way.
type Request struct {
	// Experiments lists experiment IDs (see experiments.All); the
	// single element "all" expands to every registered experiment.
	Experiments []string `json:"experiments"`
	// Quick selects the smaller CI sample budgets.
	Quick bool `json:"quick,omitempty"`
	// Seed is the base random seed; 0 means the default seed 1.
	Seed uint64 `json:"seed,omitempty"`
	// Configs restricts the C1..C8 workload subset; empty keeps each
	// experiment's paper-default set.
	Configs []string `json:"configs,omitempty"`
	// Objective names the optimization objective for the optimizing
	// mappers ("" or "max", "dev", "global", "ratio",
	// "weighted:max=1,dev=2").
	Objective string `json:"objective,omitempty"`
	// CacheDir roots the persistent artifact disk tier. Attaching the
	// tier is the host's job (cmd/obmsim does it per run; the daemon
	// once at startup and rejects per-job overrides) — the field here
	// records provenance in the envelope's options block.
	CacheDir string `json:"cachedir,omitempty"`
	// CacheSize bounds the disk tier in bytes; 0 means
	// DefaultCacheSize, <0 unbounded.
	CacheSize int64 `json:"cachesize,omitempty"`
	// Stream overrides the dynstream timeline generator's load shape
	// ("load=0.8,maxthreads=24"; see sched.GenConfig.WithOverrides).
	// "" keeps the documented defaults.
	Stream string `json:"stream,omitempty"`
}

// Normalized returns the request with defaults applied: Seed 0 becomes
// 1 and CacheSize 0 becomes DefaultCacheSize. Every execution and
// envelope path normalizes first, so a request omitting a knob and one
// spelling out the default produce identical envelopes.
func (r Request) Normalized() Request {
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.CacheSize == 0 {
		r.CacheSize = DefaultCacheSize
	}
	return r
}

// Options resolves the request into experiments.Options without
// touching the experiment registry. Most callers want Resolve, which
// also resolves and validates the runner list.
func (r Request) Options() (experiments.Options, error) {
	r = r.Normalized()
	opts := experiments.Options{
		Quick:  r.Quick,
		Seed:   r.Seed,
		Stream: r.Stream,
	}
	if len(r.Configs) > 0 {
		opts.Configs = append([]string(nil), r.Configs...)
	}
	if r.Objective != "" {
		obj, err := core.ParseObjective(r.Objective)
		if err != nil {
			return experiments.Options{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		opts.Objective = obj
	}
	if err := opts.Validate(); err != nil {
		return experiments.Options{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return opts, nil
}

// Resolve validates the whole request and returns the resolved options
// together with the runners, in execution order. All failures wrap
// ErrBadRequest and happen before any work runs.
func (r Request) Resolve() (experiments.Options, []experiments.Runner, error) {
	opts, err := r.Options()
	if err != nil {
		return experiments.Options{}, nil, err
	}
	if len(r.Experiments) == 0 {
		return experiments.Options{}, nil, fmt.Errorf("%w: no experiments requested", ErrBadRequest)
	}
	if len(r.Experiments) == 1 && r.Experiments[0] == "all" {
		return opts, experiments.All(), nil
	}
	runners := make([]experiments.Runner, 0, len(r.Experiments))
	for _, id := range r.Experiments {
		runner, err := experiments.Get(strings.TrimSpace(id))
		if err != nil {
			return experiments.Options{}, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		runners = append(runners, runner)
	}
	return opts, runners, nil
}

// ExperimentInfo describes one registered experiment for listings
// (obmsim -list, GET /v1/experiments).
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// Experiments lists every registered experiment in ID order.
func Experiments() []ExperimentInfo {
	all := experiments.All()
	out := make([]ExperimentInfo, len(all))
	for i, r := range all {
		out[i] = ExperimentInfo{ID: r.ID(), Title: r.Title()}
	}
	return out
}
