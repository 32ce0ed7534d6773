package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Objective is a pluggable optimization target for the OBM problem. The
// paper's Section III.A weighs several balance metrics before settling
// on the max-APL; this interface lifts that choice out of the mappers so
// any of the alternatives (and composites of them) can be *optimized*,
// not just reported.
//
// Every objective is a pure function of the per-application APL
// numerators — application i's total packet latency num[i] = sum over
// its threads of c_j*TC + m_j*TM — because all of the paper's candidate
// metrics are. That shared domain is what makes incremental moves
// cheap: a swap or window move touches O(window) threads, so a mapper
// patches O(window) numerators, re-scores with Value in O(A) instead of
// re-walking all N threads, and restores them.
//
// Values are costs: lower is always better, and mappers minimize
// unconditionally. Metrics that want maximizing express themselves as
// costs (MinMaxRatio scores 1 - ratio). Implementations must be
// comparable value types (no slices/maps) so mapper configurations
// remain comparable, and must be deterministic pure functions.
type Objective interface {
	// Name is the human label used in mapper names and experiment rows.
	Name() string
	// Fingerprint is a stable content key covering the objective and all
	// of its parameters; mappers fold it into their own Fingerprint so
	// the scenario artifact cache never conflates two objectives.
	Fingerprint() string
	// Value scores per-application APL numerators (len == p.NumApps();
	// applications with zero request rate are ignored). Lower is better.
	// It must not retain or modify num.
	Value(p *Problem, num []float64) float64
}

// DefaultObjective is the paper's objective, the max-APL (eq. 7). A nil
// Objective everywhere in this repository means DefaultObjective, so
// zero-value mapper configurations keep the published behavior.
var DefaultObjective Objective = MaxAPL{}

// ObjectiveOrDefault resolves nil to DefaultObjective.
func ObjectiveOrDefault(o Objective) Objective {
	if o == nil {
		return DefaultObjective
	}
	return o
}

// IsDefaultObjective reports whether o is the paper's max-APL objective
// (nil counts). Mappers use it to keep their default fingerprints
// byte-identical to the pre-objective era.
func IsDefaultObjective(o Objective) bool {
	return o == nil || o == DefaultObjective
}

// MaxAPL is the paper's objective: the largest per-application APL
// (d_max of eq. 7). Lower is better.
type MaxAPL struct{}

// Name implements Objective.
func (MaxAPL) Name() string { return "max-APL" }

// Fingerprint implements Objective.
func (MaxAPL) Fingerprint() string { return "maxapl" }

// Value implements Objective.
func (MaxAPL) Value(p *Problem, num []float64) float64 {
	var mx float64
	for i, n := range num {
		if w := p.appWeight[i]; w > 0 {
			if apl := n / w; apl > mx {
				mx = apl
			}
		}
	}
	return mx
}

// DevAPL is the population standard deviation of the active
// applications' APLs — the dev-APL the paper reports in Table 4 and
// discusses as a candidate balance objective in Section III.A. Lower is
// better; 0 is perfect balance.
type DevAPL struct{}

// Name implements Objective.
func (DevAPL) Name() string { return "dev-APL" }

// Fingerprint implements Objective.
func (DevAPL) Fingerprint() string { return "devapl" }

// Value implements Objective.
//
// It uses the same two-pass arithmetic as stats.StdDev over the active
// slice, so the objective agrees bit-for-bit with Evaluation.DevAPL.
func (DevAPL) Value(p *Problem, num []float64) float64 {
	var sum float64
	active := 0
	for i, n := range num {
		if w := p.appWeight[i]; w > 0 {
			sum += n / w
			active++
		}
	}
	if active == 0 {
		return 0
	}
	mean := sum / float64(active)
	var ss float64
	for i, n := range num {
		if w := p.appWeight[i]; w > 0 {
			d := n/w - mean
			ss += d * d
		}
	}
	return math.Sqrt(ss / float64(active))
}

// GAPL is the overall (global) APL: chip-wide total packet latency over
// chip-wide request volume — the objective the traditional
// performance-oriented mappers of Section II.D minimize. Lower is
// better. Optimizing it reproduces Global's goal with any of the
// iterative mappers.
type GAPL struct{}

// Name implements Objective.
func (GAPL) Name() string { return "g-APL" }

// Fingerprint implements Objective.
func (GAPL) Fingerprint() string { return "gapl" }

// Value implements Objective.
func (GAPL) Value(p *Problem, num []float64) float64 {
	if p.totalRate == 0 {
		return 0
	}
	var total float64
	for _, n := range num {
		total += n
	}
	return total / p.totalRate
}

// MinMaxRatio is the min/max-APL balance ratio of Section III.A, a
// maximization metric (1 is perfect balance) expressed as the cost
// 1 - min/max so that lower is better like every other Objective. An
// instance with no active applications scores 0 (the ratio convention
// of stats.MinMaxRatio maps empty to 1).
type MinMaxRatio struct{}

// Name implements Objective.
func (MinMaxRatio) Name() string { return "minmax-ratio" }

// Fingerprint implements Objective.
func (MinMaxRatio) Fingerprint() string { return "minmaxratio" }

// Value implements Objective.
func (MinMaxRatio) Value(p *Problem, num []float64) float64 {
	mn, mx := math.Inf(1), 0.0
	active := false
	for i, n := range num {
		if w := p.appWeight[i]; w > 0 {
			apl := n / w
			if apl < mn {
				mn = apl
			}
			if apl > mx {
				mx = apl
			}
			active = true
		}
	}
	if !active || mx == 0 {
		return 0
	}
	return 1 - mn/mx
}

// Weighted is a linear composite of the five base metrics — e.g.
// α·max-APL + β·dev-APL trades worst-case latency against spread, the
// energy/latency-style multi-objective blend the related NoC-mapping
// literature optimizes. Zero-weight terms cost nothing. The zero value
// scores everything 0; give at least one weight.
type Weighted struct {
	// Max, Dev, Global, Ratio weight the MaxAPL, DevAPL, GAPL and
	// MinMaxRatio costs respectively.
	Max, Dev, Global, Ratio float64
	// Energy weights the Energy cost (pJ, default 45nm parameters).
	Energy float64
}

// maxWeight bounds a parsed Weighted weight's magnitude. Every metric a
// weight multiplies is far below 1e290, so a bounded weight keeps every
// weighted score finite instead of overflowing to an Inf that ties all
// mappings.
const maxWeight = 1e12

// Name implements Objective.
func (w Weighted) Name() string { return "weighted" + w.params() }

// Fingerprint implements Objective.
func (w Weighted) Fingerprint() string { return "weighted" + w.params() }

func (w Weighted) params() string {
	var parts []string
	add := func(k string, v float64) {
		if v != 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("max", w.Max)
	add("dev", w.Dev)
	add("global", w.Global)
	add("ratio", w.Ratio)
	add("energy", w.Energy)
	return "(" + strings.Join(parts, ",") + ")"
}

// Value implements Objective.
func (w Weighted) Value(p *Problem, num []float64) float64 {
	var v float64
	if w.Max != 0 {
		v += w.Max * (MaxAPL{}).Value(p, num)
	}
	if w.Dev != 0 {
		v += w.Dev * (DevAPL{}).Value(p, num)
	}
	if w.Global != 0 {
		v += w.Global * (GAPL{}).Value(p, num)
	}
	if w.Ratio != 0 {
		v += w.Ratio * (MinMaxRatio{}).Value(p, num)
	}
	if w.Energy != 0 {
		v += w.Energy * (Energy{}).Value(p, num)
	}
	return v
}

// Objectives returns one instance of every named (non-composite)
// objective, in presentation order.
func Objectives() []Objective {
	return []Objective{MaxAPL{}, DevAPL{}, GAPL{}, MinMaxRatio{}, Energy{}}
}

// ParseObjective resolves a command-line objective spelling:
//
//	max | maxapl          the paper's max-APL (default)
//	dev | devapl          dev-APL (population stddev)
//	global | gapl         overall APL
//	ratio | minmax        1 - min/max-APL
//	energy                dynamic NoC energy (pJ, 45nm defaults)
//	weighted:max=1,dev=2  linear composite (keys max, dev, global,
//	                      ratio, energy)
//
// The empty string parses to DefaultObjective. Weights must be finite
// and at most maxWeight in magnitude.
func ParseObjective(s string) (Objective, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "max", "maxapl", "max-apl":
		return DefaultObjective, nil
	case "dev", "devapl", "dev-apl":
		return DevAPL{}, nil
	case "global", "gapl", "g-apl":
		return GAPL{}, nil
	case "ratio", "minmax", "minmaxratio", "minmax-ratio":
		return MinMaxRatio{}, nil
	case "energy":
		return Energy{}, nil
	}
	if rest, ok := strings.CutPrefix(strings.ToLower(strings.TrimSpace(s)), "weighted:"); ok {
		w := Weighted{}
		for _, term := range strings.Split(rest, ",") {
			k, vs, ok := strings.Cut(strings.TrimSpace(term), "=")
			if !ok {
				return nil, fmt.Errorf("core: weighted objective term %q is not key=weight", term)
			}
			v, err := strconv.ParseFloat(vs, 64)
			if err != nil {
				return nil, fmt.Errorf("core: weighted objective weight %q: %v", vs, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > maxWeight {
				return nil, fmt.Errorf("core: weighted objective term %q: weight must be finite with magnitude at most %g", term, float64(maxWeight))
			}
			switch strings.TrimSpace(k) {
			case "max":
				w.Max = v
			case "dev":
				w.Dev = v
			case "global":
				w.Global = v
			case "ratio":
				w.Ratio = v
			case "energy":
				w.Energy = v
			default:
				return nil, fmt.Errorf("core: weighted objective key %q (want max, dev, global, ratio, energy)", k)
			}
		}
		if w == (Weighted{}) {
			return nil, fmt.Errorf("core: weighted objective needs at least one non-zero weight")
		}
		return w, nil
	}
	names := make([]string, 0, 5)
	for _, o := range Objectives() {
		names = append(names, o.Fingerprint())
	}
	sort.Strings(names)
	return nil, fmt.Errorf("core: unknown objective %q (want max, dev, global, ratio, energy, or weighted:max=1,dev=2; have %s)",
		s, strings.Join(names, ", "))
}

// Scorer evaluates one objective over many mappings of one problem with
// zero per-call allocation — the scalar path batch mappers (Monte
// Carlo's per-trial scoring) use instead of building a full Evaluation (2 slices) per call. Not safe
// for concurrent use; give each goroutine its own.
type Scorer struct {
	p   *Problem
	obj Objective
	num []float64
}

// Scorer returns a reusable scorer for obj (nil means the default
// max-APL) on p.
func (p *Problem) Scorer(obj Objective) *Scorer {
	return &Scorer{p: p, obj: ObjectiveOrDefault(obj), num: make([]float64, p.NumApps())}
}

// Score returns the objective cost of mapping m. It allocates nothing.
func (s *Scorer) Score(m Mapping) float64 {
	s.p.Numerators(m, s.num)
	return s.obj.Value(s.p, s.num)
}

// Objective returns the objective the scorer evaluates.
func (s *Scorer) Objective() Objective { return s.obj }

// Numerators fills num (len == NumApps) with the per-application total
// packet latencies of mapping m — the shared domain every Objective
// scores. It allocates nothing.
func (p *Problem) Numerators(m Mapping, num []float64) {
	for i := range num {
		num[i] = 0
	}
	for j, t := range m {
		num[p.appOf[j]] += p.ThreadCost(j, t)
	}
}

// ObjectiveValue returns obj's cost of mapping m (nil obj means the
// default max-APL). One-shot convenience over Scorer; allocates one
// numerator slice.
func (p *Problem) ObjectiveValue(m Mapping, obj Objective) float64 {
	num := make([]float64, p.NumApps())
	p.Numerators(m, num)
	return ObjectiveOrDefault(obj).Value(p, num)
}
