package sched

import (
	"context"
	"fmt"
	"sort"
	"time"

	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/obs"
	"obm/internal/stats"
	"obm/internal/workload"
)

// StreamConfig assembles a streaming scheduler from its policies.
type StreamConfig struct {
	// Placement handles every arrival incrementally (default spiral).
	Placement Placement
	// Policy decides when to attempt a remap (default Never).
	Policy Policy
	// Remapper produces remap candidates; nil disables remapping
	// regardless of Policy.
	Remapper Remapper
	// Cost is the migration-aware adoption test for candidates.
	Cost CompositeCost
	// Registry receives the scheduler's SLO metrics (remap latency,
	// migrations per remap, time-weighted dev-APL); nil uses the
	// process-default registry. Recording never influences results.
	Registry *obs.Registry
}

// StreamMetrics aggregates one streaming run: the time-weighted APL
// metrics of the timeline plus the remap-economy counters the
// experiments report. The registry (StreamConfig.Registry) counts the
// rest: arrivals, departures, remap attempts and the live-app peak.
type StreamMetrics struct {
	Events int
	// Remaps counts the adopted candidates; RemapsRejected those whose
	// improvement did not cover their migration cost.
	Remaps         int
	RemapsRejected int
	// Migrations counts thread moves across adopted remaps only.
	Migrations         int
	TimeWeightedMaxAPL float64
	TimeWeightedDevAPL float64
}

// StreamRunner executes event timelines of arbitrary length in O(live
// state) memory: per-application APL numerators are maintained
// incrementally, so between-remap measurement costs O(live apps) per
// event group and the OBM problem is only materialized when the policy
// actually fires.
type StreamRunner struct {
	lm  *model.LatencyModel
	cfg StreamConfig
}

// NewStreamRunner validates the configuration, resolving defaults
// (spiral placement, Never policy, default registry).
func NewStreamRunner(lm *model.LatencyModel, cfg StreamConfig) (*StreamRunner, error) {
	if lm == nil {
		return nil, fmt.Errorf("sched: nil latency model")
	}
	if cfg.Placement == nil {
		cfg.Placement = &SpiralPlacement{}
	}
	if cfg.Policy == nil {
		cfg.Policy = Never{}
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	return &StreamRunner{lm: lm, cfg: cfg}, nil
}

// streamState is the live chip: the live applications by name and the
// free tiles.
type streamState struct {
	apps  map[string]*liveApp
	order []string // sorted live names, the deterministic iteration order
	fs    *FreeSet
	apls  []float64 // measurement scratch
}

// liveApp is one live application: its threads, their tiles, and its
// incrementally maintained APL numerator and denominator.
type liveApp struct {
	app    workload.Application
	tiles  []mesh.Tile
	num    float64 // total packet latency (APL numerator)
	weight float64 // total request rate (APL denominator)
}

// newStreamState returns an empty chip of n tiles.
func newStreamState(n int) *streamState {
	return &streamState{apps: map[string]*liveApp{}, fs: NewFreeSet(n)}
}

// numerator computes the application's APL numerator from scratch.
func (a *liveApp) numerator(lm *model.LatencyModel) float64 {
	var sum float64
	for i, th := range a.app.Threads {
		sum += lm.Cost(th.CacheRate, th.MemRate, a.tiles[i])
	}
	return sum
}

// balance returns the live max-APL and dev-APL (population stddev)
// with core.Evaluate's arithmetic, iterating apps in sorted-name order
// so float summation is deterministic. Zero-weight apps are excluded,
// as in core.Evaluate.
func (st *streamState) balance() (maxAPL, devAPL float64, active int) {
	apls := st.apls[:0]
	for _, name := range st.order {
		if a := st.apps[name]; a.weight != 0 {
			apls = append(apls, a.num/a.weight)
		}
	}
	st.apls = apls
	if len(apls) == 0 {
		return 0, 0, 0
	}
	return stats.MustMax(apls), stats.StdDev(apls), len(apls)
}

// problem materializes the padded OBM problem plus the incumbent
// mapping for the current live set — only done per remap attempt.
func (st *streamState) problem(lm *model.LatencyModel) (*core.Problem, core.Mapping, error) {
	w := &workload.Workload{Name: "live"}
	var m core.Mapping
	for _, name := range st.order {
		a := st.apps[name]
		w.Apps = append(w.Apps, a.app)
		m = append(m, a.tiles...)
	}
	if err := w.PadTo(lm.NumTiles()); err != nil {
		return nil, nil, err
	}
	for t := 0; t < lm.NumTiles(); t++ {
		if st.fs.Free(mesh.Tile(t)) {
			m = append(m, mesh.Tile(t))
		}
	}
	p, err := core.NewProblem(lm, w)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Validate(p.N()); err != nil {
		return nil, nil, err
	}
	return p, m, nil
}

// Run drains the source and returns aggregate metrics. Progress is
// reported through ctx's engine sink under the "dynstream" stage; the
// run is cancellable between event groups and inside every remap
// solve. A timeline that breaks the Scenario invariants (times out of
// order, an event that is not exactly one of arrive/depart, a
// duplicate or empty arrival, an unknown departure, an end before the
// last event) is an error.
func (r *StreamRunner) Run(ctx context.Context, src Source) (StreamMetrics, error) {
	reg := r.cfg.Registry
	evCount := reg.Counter("sched.stream.events")
	arrCount := reg.Counter("sched.stream.arrivals")
	depCount := reg.Counter("sched.stream.departures")
	attemptCount := reg.Counter("sched.stream.remap.attempts")
	remapCount := reg.Counter("sched.stream.remaps")
	rejectCount := reg.Counter("sched.stream.remap.rejected")
	migCount := reg.Counter("sched.stream.migrations")
	liveGauge := reg.Gauge("sched.stream.live_apps")
	peakGauge := reg.Gauge("sched.stream.live_apps.peak")
	remapTimer := reg.Timer("sched.remap.seconds")
	migHist := reg.Histogram("sched.remap.migrations", obs.LinearBuckets(0, 8, 33))
	devHist := reg.Histogram("sched.stream.devapl", obs.ExpBuckets(0.01, 2, 16))

	st := newStreamState(r.lm.NumTiles())

	var met StreamMetrics
	var weightSum float64
	var lastRemap int64
	var prevTime int64
	first := true
	total := src.Len()
	rep := engine.StartStage(ctx, "dynstream")

	measure := func(until int64) {
		span := float64(until - prevTime)
		if span <= 0 {
			return
		}
		maxAPL, devAPL, active := st.balance()
		if active == 0 {
			return
		}
		met.TimeWeightedMaxAPL += maxAPL * span
		met.TimeWeightedDevAPL += devAPL * span
		weightSum += span
		devHist.ObserveN(devAPL, uint64(span))
	}

	// pending groups events that share a timestamp: one lookahead slot
	// keeps the source streaming while the runner coalesces.
	var pending []Event
	var carry *Event
	nextGroup := func() []Event {
		pending = pending[:0]
		if carry != nil {
			pending = append(pending, *carry)
			carry = nil
		}
		for {
			e, ok := src.Next()
			if !ok {
				return pending
			}
			if len(pending) == 0 || e.Time == pending[0].Time {
				pending = append(pending, e)
				continue
			}
			carry = &e
			return pending
		}
	}

	for {
		group := nextGroup()
		if len(group) == 0 {
			break
		}
		now := group[0].Time
		if err := ctx.Err(); err != nil {
			return StreamMetrics{}, fmt.Errorf("sched: stream interrupted at event %d/%d: %w", met.Events, total, err)
		}
		if first {
			prevTime = now
			first = false
		} else if now < prevTime {
			return StreamMetrics{}, fmt.Errorf("sched: stream event %d out of order (t=%d after %d)", met.Events, now, prevTime)
		}
		measure(now)
		prevTime = now

		for i := range group {
			e := &group[i]
			if (e.Arrive == nil) == (e.Depart == "") {
				return StreamMetrics{}, fmt.Errorf("sched: stream event %d must be exactly one of arrive/depart", met.Events)
			}
			if e.Arrive != nil {
				if err := st.arrive(r.lm, r.cfg.Placement, e.Arrive); err != nil {
					return StreamMetrics{}, err
				}
				arrCount.Inc()
			} else {
				if err := st.depart(e.Depart); err != nil {
					return StreamMetrics{}, err
				}
				depCount.Inc()
			}
			met.Events++
			evCount.Inc()
		}
		liveGauge.Set(int64(len(st.order)))
		peakGauge.SetMax(int64(len(st.order)))
		if met.Events%4096 < len(group) {
			rep.Report(met.Events, total)
		}

		// Policy: attempt a remap for the whole group?
		if r.cfg.Remapper != nil && len(st.order) > 0 {
			_, devAPL, _ := st.balance()
			if r.cfg.Policy.Remap(now-lastRemap, devAPL) {
				attemptCount.Inc()
				start := time.Now()
				adopted, migs, err := r.attemptRemap(ctx, st)
				remapTimer.Since(start)
				if err != nil {
					return StreamMetrics{}, err
				}
				lastRemap = now
				if adopted {
					met.Remaps++
					met.Migrations += migs
					remapCount.Inc()
					migCount.Add(uint64(migs))
					migHist.Observe(float64(migs))
				} else {
					met.RemapsRejected++
					rejectCount.Inc()
				}
			}
		}
	}
	if met.Events == 0 {
		return StreamMetrics{}, ErrNoEvents
	}
	end := src.End()
	if end < prevTime {
		return StreamMetrics{}, fmt.Errorf("sched: stream end %d before last event %d", end, prevTime)
	}
	measure(end)
	if weightSum > 0 {
		met.TimeWeightedMaxAPL /= weightSum
		met.TimeWeightedDevAPL /= weightSum
	}
	rep.Finish(met.Events, total)
	return met, nil
}

// attemptRemap materializes the live problem, solves for a candidate,
// and adopts it only if the migration-aware composite cost approves.
func (r *StreamRunner) attemptRemap(ctx context.Context, st *streamState) (adopted bool, migrations int, err error) {
	p, incumbent, err := st.problem(r.lm)
	if err != nil {
		return false, 0, err
	}
	cand, err := r.cfg.Remapper.Remap(ctx, p, incumbent)
	if err != nil {
		return false, 0, err
	}
	// Migrations: live (non-pad) threads whose tile changed.
	liveThreads := 0
	for _, name := range st.order {
		liveThreads += len(st.apps[name].tiles)
	}
	for j := 0; j < liveThreads; j++ {
		if cand[j] != incumbent[j] {
			migrations++
		}
	}
	sc := p.Scorer(r.cfg.Cost.Objective)
	if !r.cfg.Cost.Accept(sc.Score(incumbent), sc.Score(cand), migrations) {
		return false, 0, nil
	}
	// Adopt: write tiles back per app and rebuild numerators and the
	// free set.
	idx := 0
	fs := NewFreeSet(r.lm.NumTiles())
	for _, name := range st.order {
		a := st.apps[name]
		for i := range a.tiles {
			a.tiles[i] = cand[idx]
			fs.Take(cand[idx])
			idx++
		}
		a.num = a.numerator(r.lm)
	}
	st.fs = fs
	return true, migrations, nil
}

// arrive validates and places a new application, updating the
// incremental state.
func (st *streamState) arrive(lm *model.LatencyModel, pl Placement, a *workload.Application) error {
	if a.Name == "" || len(a.Threads) == 0 {
		return fmt.Errorf("sched: stream arrival %q has no threads", a.Name)
	}
	if _, dup := st.apps[a.Name]; dup {
		return fmt.Errorf("sched: stream duplicate arrival %q", a.Name)
	}
	live := &liveApp{app: *a}
	ts, err := pl.Place(lm, &live.app, st.fs)
	if err != nil {
		return err
	}
	for _, t := range ts {
		st.fs.Take(t)
	}
	live.tiles = ts
	st.apps[a.Name] = live
	i := sort.SearchStrings(st.order, a.Name)
	st.order = append(st.order, "")
	copy(st.order[i+1:], st.order[i:])
	st.order[i] = a.Name
	for _, th := range live.app.Threads {
		live.weight += th.CacheRate + th.MemRate
	}
	live.num = live.numerator(lm)
	return nil
}

// depart frees a terminating application's tiles and drops its state.
func (st *streamState) depart(name string) error {
	a, ok := st.apps[name]
	if !ok {
		return fmt.Errorf("sched: stream departs unknown application %q", name)
	}
	for _, t := range a.tiles {
		st.fs.Release(t)
	}
	delete(st.apps, name)
	i := sort.SearchStrings(st.order, name)
	st.order = append(st.order[:i], st.order[i+1:]...)
	return nil
}
