package workload

import (
	"fmt"
	"math"
)

// PARSECNames lists the PARSEC 2.0 benchmark names; the synthetic
// applications of the eight paper configurations borrow these names so
// outputs read like the paper's.
var PARSECNames = []string{
	"blackscholes", "bodytrack", "canneal", "dedup", "facesim", "ferret",
	"fluidanimate", "freqmine", "raytrace", "streamcluster", "swaptions",
	"vips", "x264",
}

// Table3 holds the per-configuration traffic statistics published in the
// paper's Table 3: the average and spread of the cache and memory request
// rates over each configuration's 64 threads.
//
// Interpretation note (documented substitution): the paper labels the
// spread column "Std-dev", but those values are not realizable as the
// standard deviation of 64 non-negative rates — e.g. C1 would need a
// coefficient of variation of 12.6 while 64 non-negative samples can
// reach at most sqrt(63) ~= 7.94. We therefore read the column as the
// *variance* of the per-thread rates; the square roots (std 9.4 for C1,
// CV ~1.3) give exactly the heavy-tailed-but-feasible per-thread spread
// the rest of the evaluation depends on.
var Table3 = map[string]RateStats{
	"C1": {Cache: Stats{Mean: 7.008, Std: math.Sqrt(88.3)}, Mem: Stats{Mean: 0.899, Std: math.Sqrt(9.84)}},
	"C2": {Cache: Stats{Mean: 1.8855, Std: math.Sqrt(17.52)}, Mem: Stats{Mean: 0.381, Std: math.Sqrt(2.21)}},
	"C3": {Cache: Stats{Mean: 10.881, Std: math.Sqrt(112.34)}, Mem: Stats{Mean: 1.51, Std: math.Sqrt(18.42)}},
	"C4": {Cache: Stats{Mean: 11.063, Std: math.Sqrt(107.27)}, Mem: Stats{Mean: 1.548, Std: math.Sqrt(17.56)}},
	"C5": {Cache: Stats{Mean: 9.04, Std: math.Sqrt(129.27)}, Mem: Stats{Mean: 1.371, Std: math.Sqrt(19.91)}},
	"C6": {Cache: Stats{Mean: 9.222, Std: math.Sqrt(125.81)}, Mem: Stats{Mean: 1.409, Std: math.Sqrt(19.21)}},
	"C7": {Cache: Stats{Mean: 1.992, Std: math.Sqrt(14.69)}, Mem: Stats{Mean: 0.399, Std: math.Sqrt(2.01)}},
	"C8": {Cache: Stats{Mean: 8.881, Std: math.Sqrt(131.87)}, Mem: Stats{Mean: 1.334, Std: math.Sqrt(20.45)}},
}

// ConfigNames returns the configuration names C1..C8 in order.
func ConfigNames() []string {
	return []string{"C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"}
}

// paperConfigSeed gives each configuration a fixed, distinct seed so every
// experiment in the repository sees the same eight workloads.
func paperConfigSeed(name string) uint64 {
	var h uint64 = 0xb5ad4eceda1ce2a9
	for _, c := range name {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// Config builds one of the paper's eight evaluation configurations:
// four 16-thread applications whose flattened rate vectors are
// moment-matched to Table 3. Application names are drawn from the PARSEC
// suite; applications are numbered in ascending order of total
// communication rate, as in the paper.
func Config(name string) (*Workload, error) {
	target, ok := Table3[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown configuration %q (want C1..C8)", name)
	}
	// The moment correction can saturate against the physical miss-ratio
	// bound for an unlucky lognormal draw, so deterministically walk
	// derived seeds until the achieved statistics are within 0.5% of the
	// Table 3 targets. The walk is fixed per configuration, so everyone
	// sees the same workloads.
	var w *Workload
	const maxAttempts = 64
	for attempt := 0; attempt < maxAttempts; attempt++ {
		cand, err := Generate(GenSpec{
			Name:       name,
			NumApps:    4,
			ThreadsPer: 16,
			Cache:      target.Cache,
			Mem:        target.Mem,
			Seed:       paperConfigSeed(name) + uint64(attempt)*2654435761,
		})
		if err != nil {
			return nil, err
		}
		if statsWithin(cand.ComputeRateStats(), target, 0.005) {
			w = cand
			break
		}
		if w == nil {
			w = cand // best effort fallback; overwritten by any exact hit
		}
	}
	// Give the four applications PARSEC names (deterministic by config) on
	// top of their rank labels.
	base := int(paperConfigSeed(name) % uint64(len(PARSECNames)))
	for i := range w.Apps {
		w.Apps[i].Name = fmt.Sprintf("%s/%d-%s", name, i+1, PARSECNames[(base+i*3)%len(PARSECNames)])
	}
	return w, nil
}

// statsWithin reports whether got matches want within relative tolerance
// tol on all four moments.
func statsWithin(got, want RateStats, tol float64) bool {
	rel := func(a, b float64) float64 {
		if b == 0 {
			return math.Abs(a)
		}
		return math.Abs(a-b) / b
	}
	return rel(got.Cache.Mean, want.Cache.Mean) <= tol &&
		rel(got.Cache.Std, want.Cache.Std) <= tol &&
		rel(got.Mem.Mean, want.Mem.Mean) <= tol &&
		rel(got.Mem.Std, want.Mem.Std) <= tol
}

// MustConfig is Config but panics on an unknown name.
func MustConfig(name string) *Workload {
	w, err := Config(name)
	if err != nil {
		panic(err)
	}
	return w
}

// AllConfigs returns the eight paper configurations C1..C8 in order.
func AllConfigs() []*Workload {
	names := ConfigNames()
	out := make([]*Workload, len(names))
	for i, n := range names {
		out[i] = MustConfig(n)
	}
	return out
}

// Figure5Workload returns the hand-specified workload of the paper's
// Figure 5 worked example: four applications of four threads each, with
// per-thread cache rates 0.1, 0.2, 0.3, 0.4 and zero memory traffic.
func Figure5Workload() *Workload {
	w := &Workload{Name: "figure5"}
	for a := 0; a < 4; a++ {
		app := Application{Name: fmt.Sprintf("app%d", a+1)}
		for _, c := range []float64{0.1, 0.2, 0.3, 0.4} {
			app.Threads = append(app.Threads, Thread{CacheRate: c})
		}
		w.Apps = append(w.Apps, app)
	}
	return w
}
