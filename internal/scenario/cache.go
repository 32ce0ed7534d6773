package scenario

import (
	"context"
	"fmt"
	"sync/atomic"

	"obm/internal/artifact"
	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/mapping"
)

// Cache is the mapper-facing adapter over the two-tier artifact store
// (internal/artifact): it translates a (Problem, Mapper) pair into a
// canonical artifact.WorkUnit, supplies the compute callback
// (mapping.MapAndCheck + Problem.Evaluate), and reports tier-accurate
// skipped-stage progress on hits. All caching policy — singleflight,
// the optional disk tier, eviction, corruption recovery — lives in the
// store; this layer only knows how to describe and produce mapper
// artifacts.
//
// Beside the store, a Cache memoizes the inputs the mappers run on
// (Problem, LowerBound, RandomAverages; see inputs.go): in memory only,
// for as long as the Cache lives, and invisible to StoreStats and the
// progress sink.
type Cache struct {
	store  *artifact.Store
	inputs artifact.Flight[any]
}

// NewCache returns a memory-only cache (the default for tests and
// library callers that never opt into persistence).
func NewCache() *Cache { return NewCacheWith(nil) }

// NewCacheWith returns a cache over the given disk tier; nil means
// memory-only.
func NewCacheWith(disk *artifact.DiskTier) *Cache {
	return &Cache{store: artifact.NewStore(disk)}
}

// workUnit builds the canonical descriptor for one mapper invocation.
func workUnit(p *core.Problem, m mapping.Mapper) artifact.WorkUnit {
	return artifact.NewWorkUnit(p.Fingerprint(), m.Fingerprint(), mapping.ObjectiveFingerprint(m))
}

// computeFn returns the store compute callback for one invocation.
func computeFn(p *core.Problem, m mapping.Mapper) func(context.Context) (artifact.Artifact, error) {
	return func(ctx context.Context) (artifact.Artifact, error) {
		mp, err := mapping.MapAndCheck(ctx, m, p)
		if err != nil {
			return artifact.Artifact{}, err
		}
		return artifact.Artifact{Mapping: mp, Eval: p.Evaluate(mp)}, nil
	}
}

// MapEval returns mapper m's validated mapping and evaluation on p,
// computing it at most once per distinct work unit — per process via
// the singleflight memory tier, and per machine when a disk tier is
// attached. A hit reports a skipped stage naming the serving tier
// ("cached:" for memory, "disk:" for the persistent tier) to the
// context's engine progress sink; a miss runs mapping.MapAndCheck and
// Problem.Evaluate under ctx as usual. The returned artifact is an
// independent copy — callers may mutate it freely.
func (c *Cache) MapEval(ctx context.Context, p *core.Problem, m mapping.Mapper) (core.Mapping, core.Evaluation, error) {
	art, src, err := c.store.Get(ctx, workUnit(p, m), computeFn(p, m))
	if err != nil {
		return nil, core.Evaluation{}, err
	}
	reportHit(ctx, src, m.Name())
	return art.Mapping, art.Eval, nil
}

// reportHit reports a store hit as a skipped stage naming the serving
// tier ("cached:" for memory, "disk:" for the persistent tier) and the
// mapper to the context's engine progress sink; a computed artifact
// reports nothing here.
func reportHit(ctx context.Context, src artifact.Source, name string) {
	switch src {
	case artifact.SourceMemory:
		engine.ReportSkipped(ctx, "cached:"+name)
	case artifact.SourceDisk:
		engine.ReportSkipped(ctx, "disk:"+name)
	}
}

// setWorkUnit builds the canonical descriptor for one NSGA-II
// invocation: the Pareto vector's fingerprint takes the objective
// slot, so set-valued artifacts never collide with scalar ones (no
// scalar objective fingerprints as "vec(...)").
func setWorkUnit(p *core.Problem, sm mapping.NSGAII) artifact.WorkUnit {
	return artifact.NewWorkUnit(p.Fingerprint(), sm.Fingerprint(), core.ParetoFingerprint())
}

// setComputeFn returns the store compute callback for one NSGA-II
// invocation. The artifact carries the full front in Set and the
// representative (first canonical member) in Mapping/Eval, so
// point-valued consumers of the same artifact see a sensible mapping
// without knowing about fronts.
func setComputeFn(p *core.Problem, sm mapping.NSGAII) func(context.Context) (artifact.Artifact, error) {
	return func(ctx context.Context) (artifact.Artifact, error) {
		set, err := mapping.MapSetAndCheck(ctx, sm, p)
		if err != nil {
			return artifact.Artifact{}, err
		}
		rep := set.Members[0]
		return artifact.Artifact{Mapping: rep.Mapping, Eval: p.Evaluate(rep.Mapping), Set: set.Members}, nil
	}
}

// MapEvalSet returns NSGA-II's validated Pareto front on p, cached
// under the same two-tier policy as MapEval: computed at most once per
// distinct work unit, keyed by (problem, mapper, Pareto vector)
// fingerprints, with tier-accurate skipped-stage reporting
// on hits. The returned set is an independent copy.
func (c *Cache) MapEvalSet(ctx context.Context, p *core.Problem, sm mapping.NSGAII) (core.ParetoSet, error) {
	art, src, err := c.store.Get(ctx, setWorkUnit(p, sm), setComputeFn(p, sm))
	if err != nil {
		return core.ParetoSet{}, err
	}
	reportHit(ctx, src, sm.Name())
	set := core.ParetoSet{Members: art.Set}
	if err := set.Validate(p.N()); err != nil {
		return core.ParetoSet{}, fmt.Errorf("scenario: cached front for %s invalid: %w", sm.Name(), err)
	}
	return set, nil
}

// StoreStats returns the per-tier request accounting.
func (c *Cache) StoreStats() artifact.Stats { return c.store.Stats() }

// Len returns the number of completed-or-in-flight artifacts held in
// the memory tier.
func (c *Cache) Len() int { return c.store.Len() }

// shared is the process-wide artifact cache every experiment runner
// routes mapper invocations through, so one `obmsim -exp all` run (and
// concurrent runners within one experiment) computes each distinct
// invocation once.
var shared atomic.Pointer[Cache]

func init() { shared.Store(NewCache()) }

// Shared returns the process-wide artifact cache.
func Shared() *Cache { return shared.Load() }

// ResetShared installs a fresh empty memory-only shared cache and
// returns it: no artifact and no memoized input survives. Tests use it
// to measure cold-path behaviour; long-lived servers can use it to
// bound memory across unrelated batches.
func ResetShared() *Cache {
	c := NewCache()
	shared.Store(c)
	return c
}

// ConfigureShared installs a shared cache backed by a persistent disk
// tier rooted at dir with the given byte budget (maxBytes <= 0:
// unbounded), warming it from whatever artifacts earlier processes
// left there, and returns it. cmd/obmsim calls this for -cachedir; the
// memory tier and the input memo start empty either way.
func ConfigureShared(dir string, maxBytes int64) (*Cache, error) {
	disk, err := artifact.OpenDisk(dir, maxBytes)
	if err != nil {
		return nil, err
	}
	c := NewCacheWith(disk)
	shared.Store(c)
	return c, nil
}
