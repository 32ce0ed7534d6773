package mapping

import (
	"context"
	"strings"
	"testing"
)

// nsga2Quick is a budget small enough for unit tests but large enough
// to produce a multi-member front on the paper's C1 configuration.
func nsga2Quick(seed uint64) NSGAII {
	return NSGAII{Population: 24, Generations: 20, Seed: seed}
}

// TestNSGAIIProducesValidFront: the front validates (permutations,
// mutual non-dominance, canonical order) and trades off at least three
// distinct points under the default {max-APL, dev-APL, energy} vector.
func TestNSGAIIProducesValidFront(t *testing.T) {
	p := paperProblem(t, "C1")
	set, err := MapSetAndCheck(context.Background(), nsga2Quick(1), p)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() < 3 {
		t.Fatalf("front has %d members, want >= 3", set.Len())
	}
	if dim := len(set.Members[0].Vector); dim != 3 {
		t.Fatalf("vector dim %d, want 3", dim)
	}
	// Vectors must really be the members' costs under the vector
	// objective, not stale copies.
	sc := p.VectorScorer()
	for i, m := range set.Members {
		got := sc.Score(m.Mapping, nil)
		for d := range got {
			if got[d] != m.Vector[d] {
				t.Fatalf("member %d component %d: stored %v != recomputed %v", i, d, m.Vector[d], got[d])
			}
		}
	}
}

// TestNSGAIIDeterministic: equal configurations produce bit-identical
// fronts; different seeds (different fingerprints) are allowed to —
// and on this instance do — differ.
func TestNSGAIIDeterministic(t *testing.T) {
	p := paperProblem(t, "C1")
	a, err := nsga2Quick(1).MapSet(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nsga2Quick(1).MapSet(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same seed diverged: %s != %s", a.Fingerprint(), b.Fingerprint())
	}
	c, err := nsga2Quick(2).MapSet(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatalf("seeds 1 and 2 produced identical fronts (%s); seed is not wired", a.Fingerprint())
	}
}

// TestNSGAIIGoldenFingerprints pins the per-seed front fingerprints on
// the paper's C1 configuration. These goldens are the worker-
// invariance proof in miniature: NSGAII has no worker knob at all, so
// any future parallelism must reproduce exactly these fronts (like the
// NoC golden fingerprint tests of PR 1).
func TestNSGAIIGoldenFingerprints(t *testing.T) {
	p := paperProblem(t, "C1")
	golden := map[uint64]string{
		1: "ps7-a575d68735f64358",
		2: "ps4-d82dde935eb195d5",
		3: "ps3-70e5bcd69f97077e",
	}
	for seed, want := range golden {
		set, err := nsga2Quick(seed).MapSet(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if got := set.Fingerprint(); got != want {
			t.Errorf("seed %d front fingerprint %s, want %s", seed, got, want)
		}
	}
}

// TestNSGAIIFingerprint: defaults resolve, the Pareto vector is always
// printed, and distinct configurations get distinct keys.
func TestNSGAIIFingerprint(t *testing.T) {
	zero := NSGAII{}
	explicit := NSGAII{Population: 64, Generations: 120}
	if zero.Fingerprint() != explicit.Fingerprint() {
		t.Fatalf("zero value %q != explicit defaults %q", zero.Fingerprint(), explicit.Fingerprint())
	}
	if !strings.Contains(zero.Fingerprint(), "vec(maxapl,devapl,energy)") {
		t.Fatalf("fingerprint %q does not name the Pareto vector", zero.Fingerprint())
	}
	if (NSGAII{Seed: 1}).Fingerprint() == zero.Fingerprint() {
		t.Fatal("seed missing from the fingerprint")
	}
}

// TestNSGAIICancellation: a cancelled context aborts the run with a
// wrapped ctx error.
func TestNSGAIICancellation(t *testing.T) {
	p := paperProblem(t, "C1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := nsga2Quick(1).MapSet(ctx, p); err == nil {
		t.Fatal("cancelled run returned no error")
	}
}
