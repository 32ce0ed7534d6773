package mapping

import (
	"context"
	"fmt"
	"time"

	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/obs"
	"obm/internal/stats"
)

// NSGAII is an NSGA-II-style multi-objective mapper over thread-to-
// tile permutations: fast non-dominated sorting with crowding-distance
// selection (Deb et al.), permutation genetic operators (binary
// tournament, order crossover, swap mutation at rate nsgaMutationRate),
// an elitist ParetoArchive of at most nsgaArchiveSize members
// accumulating the front across generations, and a final per-component
// polish phase that hill-climbs each extreme of the archive with the
// O(A) swap probes the scalar mappers use. Instead of one mapping it
// returns a Pareto front over the fixed {max-APL, dev-APL, energy}
// vector (core.ParetoObjectives). The Mapper contracts apply —
// deterministic for a fixed configuration, all randomness from explicit
// seeds, context cancellation never perturbs the random streams — plus
// one more: the returned set is in canonical order and mutually
// non-dominated (ParetoSet.Validate), so equal fingerprints imply
// bit-identical fronts and set-valued artifacts are safe to
// content-address exactly like point-valued ones.
type NSGAII struct {
	// Population size (default 64).
	Population int
	// Generations to evolve (default 120).
	Generations int
	Seed        uint64
}

const (
	// nsgaMutationRate is the per-offspring swap-mutation probability.
	nsgaMutationRate = 0.3
	// nsgaArchiveSize bounds the returned front.
	nsgaArchiveSize = 24
)

func (g NSGAII) defaults() (pop, gens int) {
	pop, gens = g.Population, g.Generations
	if pop <= 0 {
		pop = 64
	}
	if gens <= 0 {
		gens = 120
	}
	return pop, gens
}

// Name identifies the algorithm in experiment output.
func (g NSGAII) Name() string {
	pop, gens := g.defaults()
	return fmt.Sprintf("NSGA-II(%dx%d)", pop, gens)
}

// Fingerprint is the stable content key covering the algorithm, every
// result-affecting parameter and the Pareto vector, with defaults
// resolved so the zero value and explicit defaults share a key. The
// mutation rate and archive size are constants, but the key keeps
// printing them so every cached artifact key stays byte-identical.
func (g NSGAII) Fingerprint() string {
	pop, gens := g.defaults()
	return fmt.Sprintf("nsga2(pop=%d,gen=%d,mut=%g,arch=%d,seed=%d,vec=%s)",
		pop, gens, nsgaMutationRate, nsgaArchiveSize, g.Seed, core.ParetoFingerprint())
}

// setIndiv is one genome with its cached cost vector.
type setIndiv struct {
	m   core.Mapping
	vec []float64
}

// MapSet solves the instance, returning a canonical Pareto front. The
// generation loop polls cancellation once per generation. The evolve
// loop is strictly sequential, so the front is a pure function of
// (problem, budgets, seed).
func (g NSGAII) MapSet(ctx context.Context, p *core.Problem) (core.ParetoSet, error) {
	pop, gens := g.defaults()
	n := p.N()
	sc := p.VectorScorer()

	// Independent streams: initialization and variation never share
	// draws, so changing the generation count cannot reshuffle the
	// initial population.
	initRng := stats.NewRand(stats.SplitSeed(g.Seed, 0))
	evoRng := stats.NewRand(stats.SplitSeed(g.Seed, 1))

	archive := core.NewParetoArchive(nsgaArchiveSize)
	cur := make([]setIndiv, pop)
	for i := range cur {
		m := core.RandomMapping(n, initRng)
		cur[i] = setIndiv{m: m, vec: sc.Score(m, nil)}
		archive.Add(cur[i].m, cur[i].vec)
	}

	rep := engine.StartStage(ctx, g.Name())
	vectors := make([][]float64, 0, 2*pop)
	for gen := 0; gen < gens; gen++ {
		if err := ctx.Err(); err != nil {
			return core.ParetoSet{}, fmt.Errorf("nsga2: interrupted after %d/%d generations: %w", gen, gens, err)
		}
		rep.Report(gen, gens)

		// Rank the parents for tournament selection.
		vectors = vectors[:0]
		for i := range cur {
			vectors = append(vectors, cur[i].vec)
		}
		rank, crowd := rankAndCrowd(vectors)
		tournament := func() core.Mapping {
			a, b := evoRng.Intn(pop), evoRng.Intn(pop)
			if better(rank, crowd, a, b) {
				return cur[a].m
			}
			return cur[b].m
		}

		// Offspring via the permutation operators.
		combined := make([]setIndiv, 0, 2*pop)
		combined = append(combined, cur...)
		for i := 0; i < pop; i++ {
			child := orderCrossover(tournament(), tournament(), evoRng)
			if evoRng.Float64() < nsgaMutationRate {
				a, b := evoRng.Intn(n), evoRng.Intn(n)
				child[a], child[b] = child[b], child[a]
			}
			ind := setIndiv{m: child, vec: sc.Score(child, nil)}
			combined = append(combined, ind)
			archive.Add(ind.m, ind.vec)
		}

		// Elitist environmental selection over parents+offspring.
		cur = selectByFrontsAndCrowding(combined, pop)
	}

	// Polish: hill-climb each component's best member with the O(A)
	// swap probes (deterministic full-pair sweeps, no randomness), and
	// offer the results back to the archive. This recovers scalar-
	// quality extremes that pure crowding selection tends to round off.
	polish(p, sc, archive)

	rep.Finish(gens, gens)
	set := archive.Set()
	if set.Len() == 0 {
		return core.ParetoSet{}, fmt.Errorf("nsga2: empty archive (population %d, generations %d)", pop, gens)
	}
	return set, nil
}

// polish hill-climbs the archive's per-component extremes under each
// component objective in turn, using tracker swap probes, and offers
// every improved mapping back to the archive.
func polish(p *core.Problem, sc *core.VectorScorer, archive *core.ParetoArchive) {
	const maxPasses = 4
	set := archive.Set()
	if set.Len() == 0 {
		return
	}
	n := p.N()
	out := make([]float64, core.ParetoDim)
	for ci, comp := range core.ParetoObjectives() {
		// Canonical order makes the argmin deterministic under ties.
		best := 0
		for i := 1; i < set.Len(); i++ {
			if set.Members[i].Vector[ci] < set.Members[best].Vector[ci] {
				best = i
			}
		}
		t := newTracker(p, set.Members[best].Mapping.Clone(), comp)
		cur := t.value()
		for pass := 0; pass < maxPasses; pass++ {
			improved := false
			for j1 := 0; j1 < n-1; j1++ {
				for j2 := j1 + 1; j2 < n; j2++ {
					if v := t.swapValue(j1, j2); v < cur {
						t.swap(j1, j2)
						cur = v
						improved = true
					}
				}
			}
			if !improved {
				break
			}
		}
		archive.Add(t.m, sc.Score(t.m, out))
	}
}

// better reports whether parent a beats parent b under the NSGA-II
// (rank, crowding) order, with index as the deterministic tie-break.
func better(rank []int, crowd []float64, a, b int) bool {
	if rank[a] != rank[b] {
		return rank[a] < rank[b]
	}
	if crowd[a] != crowd[b] {
		return crowd[a] > crowd[b]
	}
	return a <= b
}

// rankAndCrowd computes each vector's front rank and crowding distance
// within its front.
func rankAndCrowd(vectors [][]float64) (rank []int, crowd []float64) {
	rank = make([]int, len(vectors))
	crowd = make([]float64, len(vectors))
	for r, front := range core.NonDominatedFronts(vectors) {
		dist := core.CrowdingDistances(vectors, front)
		for x, i := range front {
			rank[i] = r
			crowd[i] = dist[x]
		}
	}
	return rank, crowd
}

// selectByFrontsAndCrowding keeps want individuals from pool by front
// rank, breaking the boundary front by descending crowding distance
// (ties by ascending pool index, so selection is deterministic).
func selectByFrontsAndCrowding(pool []setIndiv, want int) []setIndiv {
	vectors := make([][]float64, len(pool))
	for i := range pool {
		vectors[i] = pool[i].vec
	}
	next := make([]setIndiv, 0, want)
	for _, front := range core.NonDominatedFronts(vectors) {
		if len(next)+len(front) <= want {
			for _, i := range front {
				next = append(next, pool[i])
			}
			if len(next) == want {
				break
			}
			continue
		}
		dist := core.CrowdingDistances(vectors, front)
		order := make([]int, len(front))
		for i := range order {
			order[i] = i
		}
		// Descending crowding, ascending index.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0; j-- {
				a, b := order[j-1], order[j]
				if dist[a] > dist[b] || (dist[a] == dist[b] && a < b) {
					break
				}
				order[j-1], order[j] = order[j], order[j-1]
			}
		}
		for _, x := range order {
			if len(next) == want {
				break
			}
			next = append(next, pool[front[x]])
		}
		break
	}
	return next
}

// orderCrossover implements OX1 on permutations: copy a random slice of
// parent a, fill the rest in parent b's order.
func orderCrossover(a, b core.Mapping, rng *stats.Rand) core.Mapping {
	n := len(a)
	lo := rng.Intn(n)
	hi := lo + rng.Intn(n-lo)
	child := make(core.Mapping, n)
	taken := make([]bool, n)
	for i := lo; i <= hi; i++ {
		child[i] = a[i]
		taken[a[i]] = true
	}
	pos := (hi + 1) % n
	for i := 0; i < n; i++ {
		v := b[(hi+1+i)%n]
		if taken[v] {
			continue
		}
		child[pos] = v
		taken[v] = true
		pos = (pos + 1) % n
	}
	return child
}

// MapSetAndCheck runs sm on p and validates the returned front — every
// member a valid permutation, mutually non-dominated, canonically
// ordered — wrapping any violation with the mapper's name, and records
// the invocation in the process metrics registry exactly like
// MapAndCheck does for scalar mappers.
func MapSetAndCheck(ctx context.Context, sm NSGAII, p *core.Problem) (core.ParetoSet, error) {
	name := sm.Name()
	reg := obs.Default()
	reg.Counter("mapping." + name + ".calls").Inc()
	start := time.Now()
	set, err := sm.MapSet(ctx, p)
	reg.Timer("mapping." + name + ".seconds").Since(start)
	if err != nil {
		reg.Counter("mapping." + name + ".errors").Inc()
		return core.ParetoSet{}, fmt.Errorf("mapping: %s: %w", name, err)
	}
	if err := set.Validate(p.N()); err != nil {
		reg.Counter("mapping." + name + ".errors").Inc()
		return core.ParetoSet{}, fmt.Errorf("mapping: %s produced invalid pareto set: %w", name, err)
	}
	return set, nil
}
