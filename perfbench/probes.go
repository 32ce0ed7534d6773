package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"obm/internal/artifact"
	"obm/internal/core"
	"obm/internal/experiments"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/obs"
	"obm/internal/scenario"
	"obm/internal/sched"
	"obm/internal/service"
	"obm/internal/sim"
	"obm/internal/stats"
	"obm/internal/workload"
)

// The traced run's in-process probes time calls into each layer's
// public functions from outside the program. Each experiment group runs
// at the budget of the workload that owns it; the mapper probes run at
// the traced workload's budget.

// mapperAlgs labels scenario.Spec.StandardMappers in order, then the
// Pareto mapper; promPrefix is each family's /metrics name prefix.
var mapperAlgs = []struct{ name, promPrefix string }{
	{"Global", "mapping_Global"},
	{"MC", "mapping_MC_"},
	{"SA", "mapping_SA_"},
	{"SSS", "mapping_SSS"},
	{"NSGA-II", "mapping_NSGA_II"},
}

const (
	// simProbeCycles is the measured window of each probe simulation,
	// the validate experiment's quick budget.
	simProbeCycles = 50_000
	// schedProbeEvents sizes the probe timeline so the adaptive policy
	// attempts well over 1000 remaps and a p99 is reportable.
	schedProbeEvents = 40_000
	// schedProbeInterval is dynstream's quick remap interval.
	schedProbeInterval = 5_000
	evalReps           = 200
	batchSize          = 256
	batchReps          = 20
	openDiskReps       = 5
)

// evalSink keeps the evaluation probe's results alive.
var evalSink float64

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// probes runs every in-process probe under parent and returns the
// per-layer metrics they produce. dir holds their scratch cache
// directories.
func probes(ctx context.Context, tr *tracer, parent int, seed uint64, quick bool, dir string) (map[string]float64, error) {
	m := make(map[string]float64)
	paperCache, err := probeExperiments(ctx, tr, parent, seed, dir, m)
	if err != nil {
		return nil, err
	}
	if err := probeArtifacts(tr, parent, paperCache, dir, m); err != nil {
		return nil, err
	}
	sss, err := probeMappers(ctx, tr, parent, seed, quick, m)
	if err != nil {
		return nil, err
	}
	if err := probeSim(ctx, tr, parent, seed, sss, m); err != nil {
		return nil, err
	}
	if err := probeSched(ctx, tr, parent, seed, m); err != nil {
		return nil, err
	}
	return m, nil
}

// probeExperiments times Runner.Run for every experiment the workloads
// submit, each group against a fresh disk tier as a fresh daemon would
// have, and the paper results' encoding into envelopes. It returns the
// paper group's cache directory.
func probeExperiments(ctx context.Context, tr *tracer, parent int, seed uint64, dir string, m map[string]float64) (string, error) {
	defer scenario.ResetShared()
	groups := []struct {
		ids   []string
		quick bool
	}{{paperIDs, false}, {simIDs, true}, {churnIDs, true}}
	var paperCache string
	var encode time.Duration
	for gi, g := range groups {
		cacheDir := filepath.Join(dir, fmt.Sprintf("probe-cache-%d", gi))
		if gi == 0 {
			paperCache = cacheDir
		}
		if _, err := scenario.ConfigureShared(cacheDir, service.DefaultCacheSize); err != nil {
			return "", err
		}
		for _, id := range g.ids {
			r, err := experiments.Get(id)
			if err != nil {
				return "", err
			}
			sp := tr.begin("experiments."+id+".run", parent)
			start := time.Now()
			res, err := r.Run(ctx, experiments.Options{Seed: seed, Quick: g.quick})
			m["experiments."+id+".run_ms"] = ms(time.Since(start))
			tr.end(sp)
			if err != nil {
				return "", fmt.Errorf("probe %s: %w", id, err)
			}
			if gi != 0 {
				continue
			}
			sp = tr.begin("experiments.encode", parent)
			start = time.Now()
			raw, err := res.JSON()
			if err == nil {
				_, err = service.Envelope(service.Request{Experiments: []string{id}, Seed: seed},
					[]service.ExperimentEntry{{ID: id, Title: r.Title(), Result: raw}}, nil)
			}
			encode += time.Since(start)
			tr.end(sp)
			if err != nil {
				return "", fmt.Errorf("probe %s: encoding: %w", id, err)
			}
		}
	}
	m["experiments.encode_ms"] = ms(encode)
	return paperCache, nil
}

// parseKey rebuilds the WorkUnit behind an artifact key
// ("wu<schema>|problem|mapper|objective").
func parseKey(key string) (artifact.WorkUnit, error) {
	parts := strings.SplitN(key, "|", 4)
	if len(parts) != 4 || !strings.HasPrefix(parts[0], "wu") {
		return artifact.WorkUnit{}, fmt.Errorf("artifact key %q: want wu<schema>|problem|mapper|objective", key)
	}
	schema, err := strconv.Atoi(parts[0][2:])
	if err != nil {
		return artifact.WorkUnit{}, fmt.Errorf("artifact key %q: %w", key, err)
	}
	return artifact.WorkUnit{Problem: parts[1], Mapper: parts[2], Objective: parts[3], Schema: schema}, nil
}

// probeArtifacts times the disk tier on the artifacts the paper group
// wrote: opening (indexing) the directory, and per artifact a decode,
// an encode, a put into an empty tier and a get from the full one.
func probeArtifacts(tr *tracer, parent int, cacheDir, dir string, m map[string]float64) error {
	var open []float64
	for i := 0; i < openDiskReps; i++ {
		sp := tr.begin("artifact.open_disk", parent)
		start := time.Now()
		_, err := artifact.OpenDisk(cacheDir, 0)
		open = append(open, ms(time.Since(start)))
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	m["artifact.open_disk_ms"] = median(open)

	files, err := filepath.Glob(filepath.Join(cacheDir, "*.obma"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("artifact probe: no artifacts in %s (%v)", cacheDir, err)
	}
	full, err := artifact.OpenDisk(cacheDir, 0)
	if err != nil {
		return err
	}
	empty, err := artifact.OpenDisk(filepath.Join(dir, "probe-put"), 0)
	if err != nil {
		return err
	}
	var dec, enc, put, get []float64
	timed := func(name string, into *[]float64, f func()) {
		sp := tr.begin(name, parent)
		start := time.Now()
		f()
		*into = append(*into, us(time.Since(start)))
		tr.end(sp)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var key string
		var art artifact.Artifact
		timed("artifact.decode", &dec, func() { key, art, err = artifact.Decode(data) })
		if err != nil {
			return fmt.Errorf("artifact probe: %s: %w", f, err)
		}
		wu, err := parseKey(key)
		if err != nil {
			return err
		}
		var again []byte
		timed("artifact.encode", &enc, func() { again = artifact.Encode(wu, art) })
		if !bytes.Equal(again, data) {
			return fmt.Errorf("artifact probe: %s does not re-encode to its own bytes", f)
		}
		timed("artifact.disk_put", &put, func() { err = empty.Put(wu, art) })
		if err != nil {
			return err
		}
		var ok bool
		timed("artifact.disk_get", &get, func() { _, ok = full.Get(wu) })
		if !ok {
			return fmt.Errorf("artifact probe: %s missed in its own tier", f)
		}
	}
	m["artifact.decode_us.p50"] = median(dec)
	m["artifact.encode_us.p50"] = median(enc)
	m["artifact.disk_put_us.p50"] = median(put)
	m["artifact.disk_get_us.p50"] = median(get)
	return nil
}

// paperModel is the experiments' 8x8 default-parameter latency model.
func paperModel() *model.LatencyModel {
	return model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
}

// probeMappers times each standard mapper and the Pareto mapper on
// C1..C8, then Problem.Evaluate and the batch evaluator on the results.
// It returns the SSS mapping of each configuration for the simulator
// probe.
func probeMappers(ctx context.Context, tr *tracer, parent int, seed uint64, quick bool, m map[string]float64) (map[string]core.Mapping, error) {
	spec := scenario.Spec{Budget: scenario.DefaultBudget(quick), Seed: seed}
	lm := paperModel()
	total := make(map[string]time.Duration)
	sss := make(map[string]core.Mapping)
	var evalUS, batchNS []float64
	for _, cfg := range workload.ConfigNames() {
		w, err := workload.Config(cfg)
		if err != nil {
			return nil, err
		}
		p, err := core.NewProblem(lm, w)
		if err != nil {
			return nil, err
		}
		var maps []core.Mapping
		for i, mp := range spec.StandardMappers() {
			alg := mapperAlgs[i].name
			sp := tr.begin("mapping."+alg+".map", parent)
			start := time.Now()
			got, err := mp.Map(ctx, p)
			total[alg] += time.Since(start)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("probe %s on %s: %w", alg, cfg, err)
			}
			maps = append(maps, got)
			if alg == "SSS" {
				sss[cfg] = got
			}
		}
		alg := mapperAlgs[len(mapperAlgs)-1].name
		sp := tr.begin("mapping."+alg+".map", parent)
		start := time.Now()
		_, err = spec.ParetoMapper().MapSet(ctx, p)
		total[alg] += time.Since(start)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("probe %s on %s: %w", alg, cfg, err)
		}

		for _, mp := range maps {
			sp := tr.begin("core.evaluate", parent)
			start := time.Now()
			for i := 0; i < evalReps; i++ {
				evalSink += p.Evaluate(mp).MaxAPL
			}
			evalUS = append(evalUS, us(time.Since(start))/evalReps)
			tr.end(sp)
		}

		be := p.BatchEvaluator(core.DefaultObjective)
		rng := stats.NewRand(seed)
		batch := make([]core.Mapping, batchSize)
		for i := range batch {
			batch[i] = core.RandomMapping(p.N(), rng)
		}
		scores := make([]float64, batchSize)
		sp = tr.begin("core.batch_eval", parent)
		start = time.Now()
		for i := 0; i < batchReps; i++ {
			be.EvaluateBatch(batch, scores)
		}
		batchNS = append(batchNS, float64(time.Since(start).Nanoseconds())/(batchReps*batchSize))
		tr.end(sp)
		evalSink += scores[0]
	}
	for _, a := range mapperAlgs {
		m["mapping."+a.name+".map_ms"] = ms(total[a.name])
	}
	m["core.evaluate_us"] = median(evalUS)
	m["core.batch_eval_ns_per_mapping"] = median(batchNS)
	return sss, nil
}

// probeSim times sim.RateDriven on each configuration under its SSS
// mapping, and the simulator's host time per NoC cycle.
func probeSim(ctx context.Context, tr *tracer, parent int, seed uint64, sss map[string]core.Mapping, m map[string]float64) error {
	lm := paperModel()
	cycles := func() uint64 {
		c, _ := obs.Default().Snapshot().Counter("noc.cycles.stepped")
		return c
	}
	before := cycles()
	var calls []time.Duration
	for _, cfg := range workload.ConfigNames() {
		w, err := workload.Config(cfg)
		if err != nil {
			return err
		}
		p, err := core.NewProblem(lm, w)
		if err != nil {
			return err
		}
		scfg := sim.DefaultRateDrivenConfig()
		scfg.Seed = seed + 5
		scfg.MeasureCycles = simProbeCycles
		sp := tr.begin("sim.rate_driven", parent)
		start := time.Now()
		_, err = sim.RateDriven(ctx, p, sss[cfg], scfg)
		calls = append(calls, time.Since(start))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe sim on %s: %w", cfg, err)
		}
	}
	stepped := cycles() - before
	if stepped == 0 {
		return fmt.Errorf("probe sim: no NoC cycles stepped")
	}
	var hostNS int64
	for _, d := range calls {
		hostNS += d.Nanoseconds()
	}
	m["sim.rate_driven_ms"] = median(msAll(calls))
	m["noc.ns_per_cycle"] = float64(hostNS) / float64(stepped)
	return nil
}

// timedRemapper and timedPlacement wrap the scheduler's plug-ins to
// time each call from outside.
type timedRemapper struct {
	inner  sched.Remapper
	tr     *tracer
	parent int
	calls  []time.Duration
}

func (r *timedRemapper) Name() string { return r.inner.Name() }

func (r *timedRemapper) Remap(ctx context.Context, p *core.Problem, incumbent core.Mapping) (core.Mapping, error) {
	sp := r.tr.begin("sched.remap", r.parent)
	start := time.Now()
	got, err := r.inner.Remap(ctx, p, incumbent)
	r.calls = append(r.calls, time.Since(start))
	r.tr.end(sp)
	return got, err
}

type timedPlacement struct {
	inner  sched.Placement
	tr     *tracer
	parent int
	calls  []time.Duration
}

func (t *timedPlacement) Name() string { return t.inner.Name() }

func (t *timedPlacement) Place(lm *model.LatencyModel, app *workload.Application, fs *sched.FreeSet) ([]mesh.Tile, error) {
	sp := t.tr.begin("sched.place", t.parent)
	start := time.Now()
	got, err := t.inner.Place(lm, app, fs)
	t.calls = append(t.calls, time.Since(start))
	t.tr.end(sp)
	return got, err
}

// probeSched drains a generated timeline, then replays it through the
// streaming scheduler under dynstream's adaptive warm-SSS scheme with
// the placement and remapper wrapped.
func probeSched(ctx context.Context, tr *tracer, parent int, seed uint64, m map[string]float64) error {
	lm := paperModel()
	gen := sched.GenConfig{Events: schedProbeEvents, Tiles: lm.NumTiles(), Seed: seed}

	sp := tr.begin("workload.generate", parent)
	start := time.Now()
	g, err := sched.NewGenerator(gen)
	if err != nil {
		return err
	}
	events := 0
	for _, ok := g.Next(); ok; _, ok = g.Next() {
		events++
	}
	m["workload.generate_ms"] = ms(time.Since(start))
	tr.end(sp)
	if events != schedProbeEvents {
		return fmt.Errorf("probe generator: %d events, want %d", events, schedProbeEvents)
	}

	obj := core.Weighted{Max: 1, Dev: 2}
	stream := tr.begin("sched.stream", parent)
	place := &timedPlacement{inner: &sched.SpiralPlacement{}, tr: tr, parent: stream}
	remap := &timedRemapper{inner: sched.WarmRemap{SSS: mapping.SortSelectSwap{Objective: obj, MaxStep: 4, Passes: 1}}, tr: tr, parent: stream}
	r, err := sched.NewStreamRunner(lm, sched.StreamConfig{
		Placement: place,
		Policy:    &sched.Debounced{Inner: sched.WhenUnbalanced{Threshold: 0.35}, MinInterval: schedProbeInterval / 4},
		Remapper:  remap,
		Cost:      sched.CompositeCost{Objective: obj, PerMigration: 0.01},
		Registry:  obs.NewRegistry(),
	})
	if err != nil {
		return err
	}
	src, err := sched.NewGenerator(gen)
	if err != nil {
		return err
	}
	_, err = r.Run(ctx, src)
	tr.end(stream)
	if err != nil {
		return fmt.Errorf("probe stream: %w", err)
	}
	remapMS := msAll(remap.calls)
	m["sched.remap_ms.p50"] = median(remapMS)
	p99, ok := quantile(remapMS, 0.99)
	if !ok {
		return fmt.Errorf("probe stream: %d remaps are too few for a p99", len(remapMS))
	}
	m["sched.remap_ms.p99"] = p99
	placeUS := make([]float64, len(place.calls))
	for i, d := range place.calls {
		placeUS[i] = us(d)
	}
	m["sched.place_us.p50"] = median(placeUS)
	return nil
}
