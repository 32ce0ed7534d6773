package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
)

// This file lifts the single-scalar objective assumption into a
// set-valued result model: one fixed vector of scalar Objectives is
// scored together, Pareto dominance and crowding distance give the
// multi-objective mapper its selection primitives, and
// ParetoSet/ParetoArchive carry a mapper's frontier with the same
// determinism guarantees point-valued results have — canonical order,
// content fingerprints, and pure value semantics — so every layer
// above (artifact encoding, scenario cache, experiments, service) can
// treat a front exactly like it treats a mapping.

// paretoObjectives is the vector every Pareto front in the repository
// trades off, in slot order: the paper's max-APL, its balance metric
// dev-APL, and dynamic energy — the latency/energy front of the
// Pareto-Optimization Framework for Automated NoC Design, with the
// energy axis of Marcon et al. All components share the Objective cost
// convention (lower is better), so dominance is uniformly
// "component-wise ≤, somewhere <".
var paretoObjectives = [...]Objective{MaxAPL{}, DevAPL{}, Energy{}}

// ParetoDim is the number of components of a Pareto cost vector.
const ParetoDim = len(paretoObjectives)

// ParetoObjectives returns the Pareto vector's components in slot
// order.
func ParetoObjectives() [ParetoDim]Objective { return paretoObjectives }

// ParetoName is the vector's human label,
// "vec(max-APL,dev-APL,energy)".
func ParetoName() string {
	var names [ParetoDim]string
	for i, o := range paretoObjectives {
		names[i] = o.Name()
	}
	return "vec(" + strings.Join(names[:], ",") + ")"
}

// ParetoFingerprint is the vector's stable content key covering every
// component, in order — order matters, because it fixes the meaning of
// each vector slot in encoded artifacts.
func ParetoFingerprint() string {
	var fps [ParetoDim]string
	for i, o := range paretoObjectives {
		fps[i] = o.Fingerprint()
	}
	return "vec(" + strings.Join(fps[:], ",") + ")"
}

// VectorScorer evaluates every component of the Pareto vector over
// many mappings of one problem, sharing one numerator pass per
// mapping. Not safe for concurrent use; give each goroutine its own.
type VectorScorer struct {
	p   *Problem
	num []float64
}

// VectorScorer returns a reusable Pareto-vector scorer on p.
func (p *Problem) VectorScorer() *VectorScorer {
	return &VectorScorer{p: p, num: make([]float64, p.NumApps())}
}

// Score fills out (len == ParetoDim) with the component costs of
// mapping m and returns it; out == nil allocates. One Numerators pass
// feeds every component.
func (s *VectorScorer) Score(m Mapping, out []float64) []float64 {
	if out == nil {
		out = make([]float64, ParetoDim)
	}
	s.p.Numerators(m, s.num)
	for i, o := range paretoObjectives {
		out[i] = o.Value(s.p, s.num)
	}
	return out
}

// Dominates reports whether cost vector a Pareto-dominates b: a is no
// worse in every component and strictly better in at least one (lower
// is better throughout). Vectors of different lengths never dominate
// each other.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// vectorsEqual reports component-wise equality.
func vectorsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NonDominatedFronts partitions vectors into successive non-dominated
// fronts (Deb's fast non-dominated sort): fronts[0] is the Pareto
// front of the whole set, fronts[1] the front once fronts[0] is
// removed, and so on. Indices are ascending within each front, so the
// partition is deterministic.
func NonDominatedFronts(vectors [][]float64) [][]int {
	n := len(vectors)
	if n == 0 {
		return nil
	}
	domCount := make([]int, n)    // how many vectors dominate i
	dominated := make([][]int, n) // indices i dominates
	var first []int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case Dominates(vectors[i], vectors[j]):
				dominated[i] = append(dominated[i], j)
				domCount[j]++
			case Dominates(vectors[j], vectors[i]):
				dominated[j] = append(dominated[j], i)
				domCount[i]++
			}
		}
	}
	for i := 0; i < n; i++ {
		if domCount[i] == 0 {
			first = append(first, i)
		}
	}
	var fronts [][]int
	cur := first
	for len(cur) > 0 {
		fronts = append(fronts, cur)
		var next []int
		for _, i := range cur {
			for _, j := range dominated[i] {
				domCount[j]--
				if domCount[j] == 0 {
					next = append(next, j)
				}
			}
		}
		sort.Ints(next)
		cur = next
	}
	return fronts
}

// CrowdingDistances returns NSGA-II crowding distances for the given
// front (indices into vectors): boundary members of every component
// get +Inf, interior members the sum of normalized neighbour gaps.
// Components with zero spread contribute nothing. The result is
// indexed like front.
func CrowdingDistances(vectors [][]float64, front []int) []float64 {
	k := len(front)
	dist := make([]float64, k)
	if k == 0 {
		return dist
	}
	dim := len(vectors[front[0]])
	order := make([]int, k) // positions into front
	for d := 0; d < dim; d++ {
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			va, vb := vectors[front[order[a]]][d], vectors[front[order[b]]][d]
			if va != vb {
				return va < vb
			}
			return front[order[a]] < front[order[b]]
		})
		lo := vectors[front[order[0]]][d]
		hi := vectors[front[order[k-1]]][d]
		dist[order[0]] = math.Inf(1)
		dist[order[k-1]] = math.Inf(1)
		if spread := hi - lo; spread > 0 {
			for x := 1; x < k-1; x++ {
				prev := vectors[front[order[x-1]]][d]
				next := vectors[front[order[x+1]]][d]
				dist[order[x]] += (next - prev) / spread
			}
		}
	}
	return dist
}

// ParetoMember is one mapping of a Pareto set with its cost vector
// (component order matches ParetoObjectives).
type ParetoMember struct {
	Mapping Mapping
	Vector  []float64
}

// Clone returns an independent deep copy.
func (m ParetoMember) Clone() ParetoMember {
	return ParetoMember{
		Mapping: m.Mapping.Clone(),
		Vector:  append([]float64(nil), m.Vector...),
	}
}

// ParetoSet is a mutually non-dominated set of mappings in canonical
// order: ascending lexicographically by cost vector, ties broken by
// mapping. Canonical order is what makes a front content-addressable —
// two runs that discover the same trade-offs in different order store
// and fingerprint identically.
type ParetoSet struct {
	Members []ParetoMember
}

// Len returns the number of members.
func (s ParetoSet) Len() int { return len(s.Members) }

// Clone returns an independent deep copy.
func (s ParetoSet) Clone() ParetoSet {
	out := ParetoSet{Members: make([]ParetoMember, len(s.Members))}
	for i, m := range s.Members {
		out.Members[i] = m.Clone()
	}
	return out
}

// sortCanonical puts members into canonical order in place.
func (s ParetoSet) sortCanonical() {
	sort.SliceStable(s.Members, func(a, b int) bool {
		return compareMembers(s.Members[a], s.Members[b]) < 0
	})
}

// compareMembers orders lexicographically by vector, then by mapping.
func compareMembers(a, b ParetoMember) int {
	for i := 0; i < len(a.Vector) && i < len(b.Vector); i++ {
		if a.Vector[i] != b.Vector[i] {
			if a.Vector[i] < b.Vector[i] {
				return -1
			}
			return 1
		}
	}
	if len(a.Vector) != len(b.Vector) {
		if len(a.Vector) < len(b.Vector) {
			return -1
		}
		return 1
	}
	for i := 0; i < len(a.Mapping) && i < len(b.Mapping); i++ {
		if a.Mapping[i] != b.Mapping[i] {
			if a.Mapping[i] < b.Mapping[i] {
				return -1
			}
			return 1
		}
	}
	if len(a.Mapping) != len(b.Mapping) {
		if len(a.Mapping) < len(b.Mapping) {
			return -1
		}
		return 1
	}
	return 0
}

// Validate reports an error unless every member is a valid
// permutation of n tiles, all vectors share one dimension, members
// are mutually non-dominated, and the set is in canonical order.
func (s ParetoSet) Validate(n int) error {
	if len(s.Members) == 0 {
		return fmt.Errorf("core: empty pareto set")
	}
	dim := len(s.Members[0].Vector)
	for i, m := range s.Members {
		if err := m.Mapping.Validate(n); err != nil {
			return fmt.Errorf("core: pareto member %d: %w", i, err)
		}
		if len(m.Vector) != dim {
			return fmt.Errorf("core: pareto member %d has %d-dim vector, want %d", i, len(m.Vector), dim)
		}
	}
	for i := range s.Members {
		for j := range s.Members {
			if i != j && Dominates(s.Members[i].Vector, s.Members[j].Vector) {
				return fmt.Errorf("core: pareto member %d dominates member %d", i, j)
			}
		}
		if i > 0 && compareMembers(s.Members[i-1], s.Members[i]) > 0 {
			return fmt.Errorf("core: pareto set not in canonical order at member %d", i)
		}
	}
	return nil
}

// Fingerprint returns a stable content hash of the set — mappings and
// vector bits in canonical order — for golden determinism tests and
// logs.
func (s ParetoSet) Fingerprint() string {
	h := fnv.New64a()
	buf := make([]byte, 8)
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf, v)
		h.Write(buf)
	}
	wu(uint64(len(s.Members)))
	for _, m := range s.Members {
		wu(uint64(len(m.Mapping)))
		for _, t := range m.Mapping {
			wu(uint64(t))
		}
		wu(uint64(len(m.Vector)))
		for _, v := range m.Vector {
			wu(math.Float64bits(v))
		}
	}
	return fmt.Sprintf("ps%d-%016x", len(s.Members), h.Sum64())
}

// ParetoArchive is a bounded, deterministic elitist archive: it keeps
// at most capacity mutually non-dominated members, rejecting dominated
// or duplicate candidates, evicting members a new candidate dominates,
// and truncating by smallest crowding distance (ties broken by
// canonical order) when full. Mappers feed every generation through
// one archive so the final front can only improve over time.
type ParetoArchive struct {
	capacity int
	members  []ParetoMember
}

// NewParetoArchive returns an empty archive holding at most capacity
// members (minimum 1).
func NewParetoArchive(capacity int) *ParetoArchive {
	if capacity < 1 {
		capacity = 1
	}
	return &ParetoArchive{capacity: capacity}
}

// Len returns the current member count.
func (a *ParetoArchive) Len() int { return len(a.members) }

// Capacity returns the archive bound.
func (a *ParetoArchive) Capacity() int { return a.capacity }

// Add offers (m, vec) to the archive, cloning both on acceptance. It
// returns false when an existing member dominates or equals the
// candidate; otherwise it evicts every member the candidate dominates,
// inserts it in canonical position, and truncates to capacity by
// dropping the member with the smallest crowding distance.
func (a *ParetoArchive) Add(m Mapping, vec []float64) bool {
	for _, e := range a.members {
		if Dominates(e.Vector, vec) || vectorsEqual(e.Vector, vec) {
			return false
		}
	}
	kept := a.members[:0]
	for _, e := range a.members {
		if !Dominates(vec, e.Vector) {
			kept = append(kept, e)
		}
	}
	a.members = append(kept, ParetoMember{Mapping: m.Clone(), Vector: append([]float64(nil), vec...)})
	ParetoSet{Members: a.members}.sortCanonical()
	for len(a.members) > a.capacity {
		a.truncateOne()
	}
	return true
}

// truncateOne removes the member with the smallest crowding distance;
// the first such member in canonical order goes, which is
// deterministic because the members slice is kept canonical.
func (a *ParetoArchive) truncateOne() {
	vectors := make([][]float64, len(a.members))
	front := make([]int, len(a.members))
	for i, m := range a.members {
		vectors[i] = m.Vector
		front[i] = i
	}
	dist := CrowdingDistances(vectors, front)
	worst := 0
	for i := 1; i < len(dist); i++ {
		if dist[i] < dist[worst] {
			worst = i
		}
	}
	a.members = append(a.members[:worst], a.members[worst+1:]...)
}

// Set returns the archived front as a canonical ParetoSet (deep copy).
func (a *ParetoArchive) Set() ParetoSet {
	out := ParetoSet{Members: make([]ParetoMember, len(a.members))}
	for i, m := range a.members {
		out.Members[i] = m.Clone()
	}
	return out
}

// Hypervolume returns the volume of objective space dominated by
// points and bounded above by ref (minimization: a point contributes
// the box [point, ref], points are clipped to ref). Exact recursive
// slicing along the last dimension; fronts in this repository are
// small (tens), so the worst case is irrelevant. An empty set or a
// zero-dimensional ref scores 0.
func Hypervolume(points [][]float64, ref []float64) float64 {
	d := len(ref)
	if d == 0 || len(points) == 0 {
		return 0
	}
	clipped := make([][]float64, 0, len(points))
	for _, p := range points {
		if len(p) != d {
			continue
		}
		q := make([]float64, d)
		for i := range q {
			q[i] = math.Min(p[i], ref[i])
		}
		clipped = append(clipped, q)
	}
	return hvSlice(clipped, ref)
}

// hvSlice computes the hypervolume of points against ref over the
// first len(ref) dimensions.
func hvSlice(points [][]float64, ref []float64) float64 {
	d := len(ref)
	if len(points) == 0 {
		return 0
	}
	if d == 1 {
		best := points[0][0]
		for _, p := range points[1:] {
			if p[0] < best {
				best = p[0]
			}
		}
		if best >= ref[0] {
			return 0
		}
		return ref[0] - best
	}
	// Sweep the last dimension: between consecutive cut values the
	// dominated (d-1)-volume is constant and equals the sub-front of
	// points already "active" (z <= cut start).
	zs := make([]float64, 0, len(points))
	for _, p := range points {
		zs = append(zs, p[d-1])
	}
	sort.Float64s(zs)
	uniq := zs[:0]
	for i, z := range zs {
		if i == 0 || z != uniq[len(uniq)-1] {
			uniq = append(uniq, z)
		}
	}
	var vol float64
	var active [][]float64
	for k, z := range uniq {
		if z >= ref[d-1] {
			break
		}
		for _, p := range points {
			if p[d-1] == z {
				active = append(active, p[:d-1])
			}
		}
		end := ref[d-1]
		if k+1 < len(uniq) && uniq[k+1] < end {
			end = uniq[k+1]
		}
		vol += hvSlice(active, ref[:d-1]) * (end - z)
	}
	return vol
}
