// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) from this repository's substrates. Each
// experiment is a named Runner producing a typed result that renders as
// a paper-style ASCII table or grid and exports CSV. DESIGN.md's
// per-experiment index maps experiment IDs to these runners;
// EXPERIMENTS.md records paper-vs-measured numbers.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/scenario"
	"obm/internal/sim"
	"obm/internal/workload"
)

// Options tunes experiment cost and seeding.
type Options struct {
	// Quick trades sample counts for speed (used by CI and -short
	// tests); headline shapes survive, error bars grow.
	Quick bool
	// Seed offsets every stochastic component deterministically.
	Seed uint64
	// Configs restricts which of C1..C8 run; nil means the experiment's
	// paper-default set.
	Configs []string
	// Objective selects the cost the optimizing mappers minimize; nil
	// keeps the paper's max-APL everywhere.
	Objective core.Objective
	// Stream overrides the dynstream experiment's timeline generator:
	// a comma-separated key=value list over sched.GenConfig's load
	// shape (load, gap, minthreads, maxthreads, appsigma, threadsigma),
	// e.g. "load=0.8,maxthreads=24". "" keeps the documented defaults.
	// Only experiments that generate timelines read it.
	Stream string
}

// Validate fails fast on malformed options — in particular an unknown
// configuration name, which would otherwise surface as a confusing
// workload error deep inside a runner. Callers (cmd/obmsim, the
// runners themselves via configsOrDefault) check it before doing any
// work.
func (o Options) Validate() error {
	names := workload.ConfigNames()
	valid := make(map[string]bool, len(names))
	for _, n := range names {
		valid[n] = true
	}
	for _, c := range o.Configs {
		if !valid[c] {
			return fmt.Errorf("experiments: unknown config %q (valid: %s)", c, strings.Join(names, ", "))
		}
	}
	// Resolve and validate the stream overrides exactly as the dynstream
	// runner will, so a typo or an out-of-range value exits 2 up front
	// instead of failing (or never finishing) deep inside the runner.
	if o.Stream != "" {
		if _, err := o.streamConfig(); err != nil {
			return err
		}
	}
	return nil
}

// Spec resolves the options into a declarative scenario.Spec: the
// configuration list (def when o.Configs is empty), the quick or full
// budgets, and the base seed. It fails fast on unknown configuration
// names. Every runner starts by calling this.
func (o Options) Spec(def ...string) (scenario.Spec, error) {
	cfgs, err := configsOrDefault(o, def)
	if err != nil {
		return scenario.Spec{}, err
	}
	return scenario.Spec{Configs: cfgs, Budget: scenario.DefaultBudget(o.Quick), Seed: o.Seed, Objective: o.Objective}, nil
}

// Result is what every experiment returns.
type Result interface {
	// Render returns the paper-style human-readable form.
	Render() string
	// CSV returns a machine-readable form (header row first).
	CSV() string
	// JSON returns the machine-readable Document form (schema
	// SchemaVersion), derived from the same typed blocks as Render and
	// CSV.
	JSON() ([]byte, error)
}

// Runner regenerates one table or figure.
type Runner interface {
	// ID is the registry key, e.g. "table1" or "fig9".
	ID() string
	// Title describes the experiment.
	Title() string
	// Run executes it. ctx carries cancellation, a deadline, and
	// optionally an engine progress sink; runners (and the mappers and
	// simulations below them) poll it and return a ctx.Err()-wrapped
	// error when interrupted. The context never influences results: an
	// uncancelled run is bit-identical whatever ctx carries.
	Run(ctx context.Context, o Options) (Result, error)
}

// registry holds all experiments keyed by ID.
var registry = map[string]Runner{}

func register(r Runner) {
	if _, dup := registry[r.ID()]; dup {
		panic("experiments: duplicate ID " + r.ID())
	}
	registry[r.ID()] = r
}

// Get returns the runner for id.
func Get(id string) (Runner, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return r, nil
}

// IDs lists registered experiment IDs, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// All returns all runners in ID order.
func All() []Runner {
	out := make([]Runner, 0, len(registry))
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}

// paperModel returns the 8x8 default-parameter latency model.
func paperModel() *model.LatencyModel {
	return model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
}

// problemFor builds the OBM problem for one paper configuration.
func problemFor(cfg string) (*core.Problem, error) {
	w, err := workload.Config(cfg)
	if err != nil {
		return nil, err
	}
	return core.NewProblem(paperModel(), w)
}

// configsOrDefault resolves the option's config list, failing fast on
// unknown configuration names.
func configsOrDefault(o Options, def []string) ([]string, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if len(o.Configs) > 0 {
		return o.Configs, nil
	}
	return def, nil
}

// mapEval runs mapper m on p through the process-wide artifact store:
// each distinct work unit is computed once per run (once per machine
// with a disk tier attached) and shared by every experiment that asks
// for it; hits surface as skipped stages on the progress sink.
func mapEval(ctx context.Context, p *core.Problem, m mapping.Mapper) (core.Mapping, core.Evaluation, error) {
	return scenario.Shared().MapEval(ctx, p, m)
}

// mapEvalSet is the set-valued twin of mapEval: it runs set-mapper sm
// through the same process-wide artifact store, keyed by the vector
// objective's fingerprint, so Pareto fronts are computed once per run
// (once per machine with a disk tier) and hits surface as skipped
// stages exactly like scalar artifacts. Never call mapping.MapSet
// directly from a runner.
func mapEvalSet(ctx context.Context, p *core.Problem, sm mapping.SetMapper) (core.ParetoSet, error) {
	return scenario.Shared().MapEvalSet(ctx, p, sm)
}

// evalGrid maps each configuration with every mapper and reads metric
// off each evaluation, returning grid[m][c]. Each configuration is one
// sim.RunReplicas job that builds its own Problem, so the fan-out is
// share-nothing and the grid is the same at any core count.
func evalGrid(ctx context.Context, cfgs []string, mappers []mapping.Mapper, metric func(core.Evaluation) float64) ([][]float64, error) {
	cols, err := sim.RunReplicas(ctx, len(cfgs), func(ctx context.Context, ci int) ([]float64, error) {
		p, err := problemFor(cfgs[ci])
		if err != nil {
			return nil, err
		}
		col := make([]float64, len(mappers))
		for mi, m := range mappers {
			_, ev, err := mapEval(ctx, p, m)
			if err != nil {
				return nil, err
			}
			col[mi] = metric(ev)
		}
		return col, nil
	})
	if err != nil {
		return nil, err
	}
	return mapperMajor(cols, len(mappers)), nil
}

// mapperMajor transposes per-configuration columns cols[c][m] into the
// mapper-major rows[m][c] the results store.
func mapperMajor(cols [][]float64, mappers int) [][]float64 {
	rows := make([][]float64, mappers)
	for mi := range rows {
		rows[mi] = make([]float64, len(cols))
		for ci, col := range cols {
			rows[mi][ci] = col[mi]
		}
	}
	return rows
}

// shortName maps mapper names to the paper's labels.
func shortName(m mapping.Mapper) string {
	n := m.Name()
	switch {
	case strings.HasPrefix(n, "MC"):
		return "MC"
	case strings.HasPrefix(n, "SA"):
		return "SA"
	default:
		return n
	}
}
