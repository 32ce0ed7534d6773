package core

import (
	"math"
	"testing"
	"testing/quick"

	"obm/internal/stats"
)

// vec3 converts quick-generated arrays into cost vectors with sane
// magnitudes (finite, non-negative — the domain every Objective emits).
func vec3(a [3]float64) []float64 {
	out := make([]float64, 3)
	for i, v := range a {
		v = math.Abs(v)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 1
		}
		out[i] = math.Mod(v, 1000)
	}
	return out
}

// TestDominatesIrreflexiveAntisymmetric: no vector dominates itself,
// and dominance is antisymmetric — quick.Check over random vectors.
func TestDominatesIrreflexiveAntisymmetric(t *testing.T) {
	irreflexive := func(a [3]float64) bool {
		v := vec3(a)
		return !Dominates(v, v)
	}
	if err := quick.Check(irreflexive, nil); err != nil {
		t.Fatalf("irreflexivity: %v", err)
	}
	antisymmetric := func(a, b [3]float64) bool {
		va, vb := vec3(a), vec3(b)
		return !(Dominates(va, vb) && Dominates(vb, va))
	}
	if err := quick.Check(antisymmetric, nil); err != nil {
		t.Fatalf("antisymmetry: %v", err)
	}
}

// TestDominatesTransitive: dominance chains compose. Random premises
// almost never fire, so the chain is constructed: b worsens a, c
// worsens b, and a must dominate c.
func TestDominatesTransitive(t *testing.T) {
	transitive := func(a [3]float64, d1, d2 [3]float64, i1, i2 uint8) bool {
		va := vec3(a)
		vb := append([]float64(nil), va...)
		for i := range vb {
			vb[i] += math.Abs(vec3(d1)[i])
		}
		vb[int(i1)%3] += 1 // guarantee strictness somewhere
		vc := append([]float64(nil), vb...)
		for i := range vc {
			vc[i] += math.Abs(vec3(d2)[i])
		}
		vc[int(i2)%3] += 1
		if !Dominates(va, vb) || !Dominates(vb, vc) {
			return false
		}
		return Dominates(va, vc)
	}
	if err := quick.Check(transitive, nil); err != nil {
		t.Fatalf("transitivity: %v", err)
	}
}

// TestDominatesMismatchedLengths: vectors of different dimension never
// dominate.
func TestDominatesMismatchedLengths(t *testing.T) {
	if Dominates([]float64{1}, []float64{2, 3}) || Dominates([]float64{1, 2}, []float64{3}) {
		t.Fatal("mismatched lengths must not dominate")
	}
	if Dominates(nil, nil) {
		t.Fatal("empty vectors must not dominate")
	}
}

// TestNonDominatedFronts: front 0 is exactly the non-dominated subset,
// and every later front is dominated by someone in an earlier front.
func TestNonDominatedFronts(t *testing.T) {
	vectors := [][]float64{
		{1, 5, 3},
		{2, 6, 4}, // dominated by 0
		{5, 1, 3},
		{6, 2, 4}, // dominated by 2
		{3, 3, 3},
		{7, 7, 7}, // dominated by everything above
	}
	fronts := NonDominatedFronts(vectors)
	if len(fronts) != 3 {
		t.Fatalf("got %d fronts, want 3: %v", len(fronts), fronts)
	}
	want0 := []int{0, 2, 4}
	if len(fronts[0]) != len(want0) {
		t.Fatalf("front 0 = %v, want %v", fronts[0], want0)
	}
	for i, idx := range want0 {
		if fronts[0][i] != idx {
			t.Fatalf("front 0 = %v, want %v", fronts[0], want0)
		}
	}
	// Invariant: no member of front k is dominated by a member of the
	// same or later fronts.
	for k, front := range fronts {
		for _, i := range front {
			for kk := k; kk < len(fronts); kk++ {
				for _, j := range fronts[kk] {
					if Dominates(vectors[j], vectors[i]) {
						t.Fatalf("front %d member %d dominated by front %d member %d", k, i, kk, j)
					}
				}
			}
		}
	}
}

// TestCrowdingDistances: boundary members get +Inf, interior members
// finite normalized gaps.
func TestCrowdingDistances(t *testing.T) {
	vectors := [][]float64{{0, 4}, {1, 3}, {2, 2}, {3, 1}, {4, 0}}
	front := []int{0, 1, 2, 3, 4}
	dist := CrowdingDistances(vectors, front)
	if !math.IsInf(dist[0], 1) || !math.IsInf(dist[4], 1) {
		t.Fatalf("boundary distances not +Inf: %v", dist)
	}
	for _, i := range []int{1, 2, 3} {
		if math.IsInf(dist[i], 0) || dist[i] <= 0 {
			t.Fatalf("interior distance %d = %v, want finite positive", i, dist[i])
		}
	}
}

// TestParetoArchiveInvariant: whatever sequence of candidates is
// offered, every archive member stays mutually non-dominated, the
// capacity bound holds, and Set() validates (canonical order included).
// quick.Check drives the sequences; values are drawn from a small grid
// so duplicates and dominance actually occur.
func TestParetoArchiveInvariant(t *testing.T) {
	const n = 8
	property := func(seed uint64, picks [24]uint16) bool {
		rng := stats.NewRand(seed)
		arch := NewParetoArchive(5)
		for _, pick := range picks {
			vec := []float64{
				float64(pick % 7),
				float64((pick / 7) % 7),
				float64((pick / 49) % 7),
			}
			arch.Add(RandomMapping(n, rng), vec)
			if arch.Len() > arch.Capacity() {
				return false
			}
			set := arch.Set()
			if set.Len() == 0 {
				return false
			}
			if err := set.Validate(n); err != nil {
				t.Logf("archive invariant violated: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, nil); err != nil {
		t.Fatalf("archive invariant: %v", err)
	}
}

// TestParetoArchiveRejectsDominatedAndDuplicates: explicit small cases.
func TestParetoArchiveRejectsDominatedAndDuplicates(t *testing.T) {
	arch := NewParetoArchive(8)
	m := IdentityMapping(4)
	if !arch.Add(m, []float64{1, 2}) {
		t.Fatal("first add rejected")
	}
	if arch.Add(m, []float64{1, 2}) {
		t.Fatal("duplicate vector accepted")
	}
	if arch.Add(m, []float64{2, 3}) {
		t.Fatal("dominated candidate accepted")
	}
	if !arch.Add(m, []float64{0, 3}) {
		t.Fatal("incomparable candidate rejected")
	}
	if !arch.Add(m, []float64{0, 1}) {
		t.Fatal("dominating candidate rejected")
	}
	// {0,1} dominates both {1,2} and {0,3}: archive collapses to it.
	if got := arch.Len(); got != 1 {
		t.Fatalf("archive has %d members after dominating add, want 1", got)
	}
	if v := arch.Set().Members[0].Vector; v[0] != 0 || v[1] != 1 {
		t.Fatalf("surviving vector %v, want [0 1]", v)
	}
}

// TestParetoArchiveDeterministicTruncation: same adds in the same
// order always produce the same archive, and truncation keeps the
// boundary (extreme) members.
func TestParetoArchiveDeterministicTruncation(t *testing.T) {
	build := func() ParetoSet {
		arch := NewParetoArchive(4)
		m := IdentityMapping(4)
		// A straight line of 7 mutually non-dominated points.
		for i := 0; i < 7; i++ {
			arch.Add(m, []float64{float64(i), float64(6 - i)})
		}
		return arch.Set()
	}
	a, b := build(), build()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("truncation not deterministic: %s != %s", a.Fingerprint(), b.Fingerprint())
	}
	if a.Len() != 4 {
		t.Fatalf("archive kept %d members, want 4", a.Len())
	}
	// Extremes survive truncation (infinite crowding distance).
	first, last := a.Members[0].Vector, a.Members[a.Len()-1].Vector
	if first[0] != 0 || last[0] != 6 {
		t.Fatalf("extremes evicted: first %v last %v", first, last)
	}
}

// TestHypervolume: hand-checkable cases.
func TestHypervolume(t *testing.T) {
	ref := []float64{4, 4}
	if hv := Hypervolume(nil, ref); hv != 0 {
		t.Fatalf("empty set hv = %v, want 0", hv)
	}
	if hv := Hypervolume([][]float64{{2, 2}}, ref); hv != 4 {
		t.Fatalf("single point hv = %v, want 4", hv)
	}
	// Two incomparable points: boxes 3x2 and 2x3 overlap in 2x2, so the
	// union covers 6 + 6 - 4 = 8.
	if hv := Hypervolume([][]float64{{1, 2}, {2, 1}}, ref); hv != 8 {
		t.Fatalf("two-point hv = %v, want 8", hv)
	}
	// A dominated point adds nothing.
	if hv := Hypervolume([][]float64{{1, 2}, {2, 1}, {3, 3}}, ref); hv != 8 {
		t.Fatalf("dominated point changed hv: %v, want 8", hv)
	}
	// Points beyond the reference clip to zero contribution.
	if hv := Hypervolume([][]float64{{5, 5}}, ref); hv != 0 {
		t.Fatalf("out-of-reference hv = %v, want 0", hv)
	}
	// 3-D: unit-dominated cube corner.
	if hv := Hypervolume([][]float64{{1, 1, 1}}, []float64{2, 2, 2}); hv != 1 {
		t.Fatalf("3-D hv = %v, want 1", hv)
	}
}

// TestHypervolumeMonotone: adding a non-dominated point never lowers
// the hypervolume (quick.Check).
func TestHypervolumeMonotone(t *testing.T) {
	ref := []float64{1000, 1000, 1000}
	property := func(a, b [3]float64) bool {
		va, vb := vec3(a), vec3(b)
		base := Hypervolume([][]float64{va}, ref)
		grown := Hypervolume([][]float64{va, vb}, ref)
		return grown >= base-1e-9
	}
	if err := quick.Check(property, nil); err != nil {
		t.Fatalf("hypervolume monotonicity: %v", err)
	}
}

// TestVectorObjective: naming and fingerprint of the fixed Pareto vector.
func TestVectorObjective(t *testing.T) {
	if got, want := ParetoName(), "vec(max-APL,dev-APL,energy)"; got != want {
		t.Fatalf("ParetoName = %q, want %q", got, want)
	}
	if got, want := ParetoFingerprint(), "vec(maxapl,devapl,energy)"; got != want {
		t.Fatalf("ParetoFingerprint = %q, want %q", got, want)
	}
}

// TestVectorScorerAgreesWithComponents: the batched scorer matches
// per-component ObjectiveValue bit-for-bit.
func TestVectorScorerAgreesWithComponents(t *testing.T) {
	p := objTestProblem(t)
	sc := p.VectorScorer()
	rng := stats.NewRand(3)
	out := make([]float64, ParetoDim)
	for trial := 0; trial < 20; trial++ {
		m := RandomMapping(p.N(), rng)
		sc.Score(m, out)
		for i, o := range ParetoObjectives() {
			if want := p.ObjectiveValue(m, o); out[i] != want {
				t.Fatalf("component %d (%s): scorer %v != ObjectiveValue %v", i, o.Name(), out[i], want)
			}
		}
	}
}

// TestEnergyObjective: energy is non-negative and strictly
// order-equivalent to total latency (the documented consequence of the
// numerator-only domain).
func TestEnergyObjective(t *testing.T) {
	p := objTestProblem(t)
	rng := stats.NewRand(9)
	num := make([]float64, p.NumApps())
	e := Energy{}
	type pair struct{ energy, gapl float64 }
	var pairs []pair
	for trial := 0; trial < 40; trial++ {
		m := RandomMapping(p.N(), rng)
		p.Numerators(m, num)
		got := e.Value(p, num)
		if got < 0 {
			t.Fatalf("negative energy %v", got)
		}
		pairs = append(pairs, pair{got, (GAPL{}).Value(p, num)})
	}
	for i := 1; i < len(pairs); i++ {
		a, b := pairs[i-1], pairs[i]
		if (a.energy < b.energy) != (a.gapl < b.gapl) && a.energy != b.energy {
			t.Fatalf("energy ordering diverged from total latency: %+v vs %+v", a, b)
		}
	}
}

// TestEnergyParseAndFingerprint: the spelling round-trips to the bare
// "energy" key.
func TestEnergyParseAndFingerprint(t *testing.T) {
	o, err := ParseObjective("energy")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := o.(Energy); !ok {
		t.Fatalf("ParseObjective(energy) = %T", o)
	}
	if got := (Energy{}).Fingerprint(); got != "energy" {
		t.Fatalf("default fingerprint %q", got)
	}
	w, err := ParseObjective("weighted:max=1,energy=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if w.(Weighted).Energy != 0.5 {
		t.Fatalf("weighted energy term lost: %+v", w)
	}
}
