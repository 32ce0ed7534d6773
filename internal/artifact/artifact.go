// Package artifact is the repository's durable artifact substrate: a
// canonical WorkUnit descriptor naming one deterministic mapper
// invocation, a versioned self-describing binary encoding for its
// (Mapping, Evaluation) result and, for a set-valued invocation, its
// Pareto front as core.ParetoMember values in Set, and a two-tier
// content-addressed Store (singleflight in-memory tier over an optional
// disk tier) that every layer above — scenario, experiments,
// cmd/obmsim, and eventually the daemon and distributed fan-out —
// shares.
//
// Contracts, in the spirit of the engine and obs layers:
//
//   - Content addressing end to end: a WorkUnit's Key is derived only
//     from content fingerprints (problem, mapper, objective) plus the
//     artifact schema version, never from names, machines, or worker
//     counts, so independently built but identical work shares storage
//     across goroutines, runs, and processes.
//   - Bit-identical round trips: the encoding preserves float64 bits
//     exactly, so an artifact served from disk is indistinguishable
//     from a recomputed one (golden tests enforce this, including
//     across separate processes).
//   - The cache can only make runs faster, never wrong: corrupted,
//     truncated, or wrong-schema disk entries are discarded and the
//     work recomputed; a failed or panicking computation is never
//     stored; eviction under concurrent readers degrades to a miss.
package artifact

import (
	"fmt"

	"obm/internal/core"
)

// SchemaVersion is the current artifact encoding version. Bumping it
// invalidates every stored artifact (old files decode with ErrSchema
// and age out of the disk tier via eviction); it participates in every
// WorkUnit key so two schema generations never collide.
//
// v2 made artifacts set-valued: after the point-valued fields, the
// frame carries N (mapping, cost vector) Pareto-set members. Scalar
// mapper artifacts simply store an empty set.
const SchemaVersion = 2

// WorkUnit canonically describes one deterministic mapper invocation:
// the content fingerprint of the problem instance, of the mapper
// configuration (seeds and budgets included, execution-shape knobs
// excluded), and of the objective being optimized, plus the artifact
// schema version. Two WorkUnits with equal Keys must — by the Mapper
// determinism contract — produce bit-identical artifacts, which is
// what makes the store safe to share across processes and machines.
type WorkUnit struct {
	// Problem is core.Problem.Fingerprint().
	Problem string
	// Mapper is mapping.Mapper.Fingerprint(). By that contract it
	// already folds in a non-default objective; Objective is carried
	// separately so the descriptor is self-describing for readers that
	// never instantiate the mapper (daemons, cache inspectors).
	Mapper string
	// Objective is the fingerprint of the objective the mapper
	// optimizes (core.Objective.Fingerprint; the default max-APL for
	// mappers without a configurable objective).
	Objective string
	// Schema is the artifact encoding version; zero means
	// SchemaVersion.
	Schema int
}

// NewWorkUnit builds a WorkUnit at the current schema version.
func NewWorkUnit(problemFP, mapperFP, objectiveFP string) WorkUnit {
	return WorkUnit{Problem: problemFP, Mapper: mapperFP, Objective: objectiveFP, Schema: SchemaVersion}
}

// schemaOrDefault resolves the zero value to the current version.
func (w WorkUnit) schemaOrDefault() int {
	if w.Schema == 0 {
		return SchemaVersion
	}
	return w.Schema
}

// Key returns the stable content key both tiers address the work unit
// by: the memory tier's map key, and (hashed) the disk tier's file
// name. The fingerprint components never contain '|' (they are
// printf-style tokens), so the join is unambiguous.
func (w WorkUnit) Key() string {
	return fmt.Sprintf("wu%d|%s|%s|%s", w.schemaOrDefault(), w.Problem, w.Mapper, w.Objective)
}

// Artifact is one memoized mapper invocation's result: the validated
// mapping and its full evaluation on the problem it was computed for,
// plus — for set-valued (multi-objective) invocations — the Pareto
// front in canonical order. Scalar invocations leave Set empty; a
// set-valued invocation stores its representative (first canonical)
// member in Mapping/Eval so every point-valued consumer keeps working
// unchanged.
type Artifact struct {
	// Mapping is the mapper's validated permutation (the canonical
	// representative for set-valued artifacts).
	Mapping core.Mapping
	// Eval is Problem.Evaluate of that mapping.
	Eval core.Evaluation
	// Set is the Pareto front of a set-valued invocation, each member a
	// mapping with its cost vector under the work unit's vector
	// objective (component order fixed by the objective fingerprint in
	// the key), in the canonical order of core.ParetoSet; empty for
	// scalar artifacts.
	Set []core.ParetoMember
}

// Clone returns an independent deep copy, so callers handed a cached
// artifact can never corrupt the stored one.
func (a Artifact) Clone() Artifact {
	out := Artifact{Mapping: a.Mapping.Clone(), Eval: a.Eval.Clone()}
	if len(a.Set) > 0 {
		out.Set = make([]core.ParetoMember, len(a.Set))
		for i, m := range a.Set {
			out.Set[i] = m.Clone()
		}
	}
	return out
}
