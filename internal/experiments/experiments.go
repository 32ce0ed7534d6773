// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) from this repository's substrates. Each
// experiment is one register call: an ID, a title and a run function
// returning a typed result that carries the Doc it renders as a
// paper-style ASCII table or grid, CSV and JSON. DESIGN.md's
// per-experiment index maps experiment IDs to these run functions;
// EXPERIMENTS.md records paper-vs-measured numbers.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

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
// workload error deep inside an experiment. Callers (cmd/obmsim, the
// run functions themselves via configsOrDefault) check it before doing
// any work.
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
	// experiment will, so a typo or an out-of-range value exits 2 up
	// front instead of failing (or never finishing) deep inside it.
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
// names. Every run function starts by calling this.
func (o Options) Spec(def ...string) (scenario.Spec, error) {
	cfgs, err := configsOrDefault(o, def)
	if err != nil {
		return scenario.Spec{}, err
	}
	return scenario.Spec{Configs: cfgs, Budget: scenario.DefaultBudget(o.Quick), Seed: o.Seed, Objective: o.Objective}, nil
}

// Result is what every experiment returns. Each typed result embeds
// the *Doc its run function built, and the Doc implements all three
// methods; multi joins several results.
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
	// optionally an engine progress sink; experiments (and the mappers
	// and simulations below them) poll it and return a
	// ctx.Err()-wrapped error when interrupted. The context never influences results: an
	// uncancelled run is bit-identical whatever ctx carries.
	Run(ctx context.Context, o Options) (Result, error)
}

// registry holds all experiments keyed by ID.
var registry = map[string]Runner{}

// entry is a registered experiment and the package's one Runner.
type entry struct {
	id, title string
	run       func(context.Context, Options) (Result, error)
}

func (e entry) ID() string    { return e.id }
func (e entry) Title() string { return e.title }

func (e entry) Run(ctx context.Context, o Options) (Result, error) { return e.run(ctx, o) }

// register adds the experiment id. run returns its typed result, whose
// embedded Doc it builds just before returning; a failed run yields a
// nil Result, never a typed nil.
func register[R Result](id, title string, run func(context.Context, Options) (R, error)) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate ID " + id)
	}
	registry[id] = entry{id: id, title: title, run: func(ctx context.Context, o Options) (Result, error) {
		res, err := run(ctx, o)
		if err != nil {
			return nil, err
		}
		return res, nil
	}}
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

// paperModel returns the 8x8 default-parameter latency model. Models
// are immutable, so every paper problem shares this one.
var paperModel = sync.OnceValue(func() *model.LatencyModel {
	return model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
})

// problemFor returns the OBM problem for one paper configuration on the
// paper model: the one way experiments get a paper workload. The shared
// scenario cache builds it once per configuration name, so a warm job
// regenerates no workload; an unknown name fails and is not memoized.
func problemFor(cfg string) (*core.Problem, error) {
	return scenario.Shared().Problem("config/"+cfg, func() (*core.Problem, error) {
		w, err := workload.Config(cfg)
		if err != nil {
			return nil, err
		}
		return core.NewProblem(paperModel(), w)
	})
}

// generatedProblem is problemFor for a workload generated from spec on
// the paper model, memoized by the spec's full content.
func generatedProblem(spec workload.GenSpec) (*core.Problem, error) {
	return scenario.Shared().Problem(fmt.Sprintf("generated/%#v", spec), func() (*core.Problem, error) {
		w, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		return core.NewProblem(paperModel(), w)
	})
}

// lowerBound returns p.LowerBound(), solved once per problem through
// the shared scenario cache.
func lowerBound(p *core.Problem) (float64, error) {
	return scenario.Shared().LowerBound(p)
}

// randomAverages returns core.RandomAverages(ps, seed, draws), drawn
// once per request through the shared scenario cache.
func randomAverages(ps []*core.Problem, seed uint64, draws int) ([]core.RandomAverage, error) {
	return scenario.Shared().RandomAverages(ps, seed, draws)
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

// mapEvalSet is the set-valued twin of mapEval: it runs NSGA-II sm
// through the same process-wide artifact store, keyed by the Pareto
// vector's fingerprint, so Pareto fronts are computed once per run
// (once per machine with a disk tier) and hits surface as skipped
// stages exactly like scalar artifacts. Never call NSGAII.MapSet
// directly from an experiment.
func mapEvalSet(ctx context.Context, p *core.Problem, sm mapping.NSGAII) (core.ParetoSet, error) {
	return scenario.Shared().MapEvalSet(ctx, p, sm)
}

// evalGrid maps each configuration with every mapper and reads metric
// off each evaluation, returning grid[m][c]. Each configuration is one
// sim.RunReplicas job; the jobs share only the memoized, immutable
// problems and the artifact store, so the grid is the same at any core
// count.
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
