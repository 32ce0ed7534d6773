package sched

import (
	"container/heap"
	"fmt"
	"math"
	"strconv"
	"strings"

	"obm/internal/stats"
	"obm/internal/workload"
)

// Source streams a timeline of events so million-event scenarios never
// need to exist in memory as a slice. Events arrive in nondecreasing
// Time order and satisfy the Scenario invariants (arrivals unique,
// departures live).
type Source interface {
	// Next returns the next event; ok is false when the timeline is
	// exhausted.
	Next() (e Event, ok bool)
	// Len returns the total number of events the source emits, for
	// progress reporting.
	Len() int
	// End returns the horizon closing the last measurement interval. For
	// generated timelines it is final only once Next has returned
	// ok == false.
	End() int64
}

// SliceSource adapts an in-memory Scenario to the Source interface.
type SliceSource struct {
	sc Scenario
	i  int
}

// NewSliceSource wraps sc; StreamRunner.Run rejects it if it breaks the
// Scenario invariants.
func NewSliceSource(sc Scenario) *SliceSource { return &SliceSource{sc: sc} }

// Next implements Source.
func (s *SliceSource) Next() (Event, bool) {
	if s.i >= len(s.sc.Events) {
		return Event{}, false
	}
	e := s.sc.Events[s.i]
	s.i++
	return e, true
}

// Len implements Source.
func (s *SliceSource) Len() int { return len(s.sc.Events) }

// End implements Source.
func (s *SliceSource) End() int64 { return s.sc.End }

// Materialize drains a source into an in-memory Scenario — convenient
// for tests that inspect or replay a generated timeline at small
// scale. It refuses nothing: the source's own invariants make the
// result valid.
func Materialize(src Source) Scenario {
	sc := Scenario{Events: make([]Event, 0, src.Len())}
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		sc.Events = append(sc.Events, e)
	}
	sc.End = src.End()
	return sc
}

// GenConfig parameterizes a synthetic arrival/departure timeline.
type GenConfig struct {
	// Events is the number of events (arrivals + departures) to emit.
	Events int
	// Tiles is the chip capacity; arrivals are clamped so the live
	// thread count never exceeds it.
	Tiles int
	// Seed derives all random streams (inter-arrival times, application
	// sizes, request rates, lifetimes) via stats.SplitSeed, so any one
	// stream can be perturbed without shifting the others.
	Seed uint64
	// MeanGap is the mean inter-arrival gap in ticks (default 100).
	MeanGap float64
	// TargetLoad is the steady-state fraction of tiles occupied
	// (default 0.6); application lifetimes are derived from it by
	// Little's law.
	TargetLoad float64
	// MinThreads and MaxThreads bound application sizes (defaults 2
	// and 16).
	MinThreads, MaxThreads int
	// AppSigma and ThreadSigma shape the lognormal request-rate
	// hierarchy (defaults 1.2 and 0.3), mirroring workload.Generate:
	// applications differ a lot, threads within one a little.
	AppSigma, ThreadSigma float64
}

// WithOverrides applies a comma-separated key=value spec over the
// generator's load-shape knobs — the form surfaced as obmsim's
// -stream flag. Recognized keys: load (TargetLoad), gap (MeanGap),
// minthreads, maxthreads, appsigma, threadsigma. Unknown keys and
// unparsable values are errors (fail fast, like unknown experiment
// configs); "" returns c unchanged. Events, Tiles, and Seed are
// deliberately not overridable here: they are owned by the experiment
// (scale and seeding), not the workload shape.
func (c GenConfig) WithOverrides(spec string) (GenConfig, error) {
	if spec == "" {
		return c, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("sched: stream override %q is not key=value", kv)
		}
		k = strings.ToLower(strings.TrimSpace(k))
		v = strings.TrimSpace(v)
		switch k {
		case "minthreads", "maxthreads":
			n, err := strconv.Atoi(v)
			if err != nil {
				return c, fmt.Errorf("sched: stream override %s=%q: %w", k, v, err)
			}
			if k == "minthreads" {
				c.MinThreads = n
			} else {
				c.MaxThreads = n
			}
		case "load", "gap", "appsigma", "threadsigma":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return c, fmt.Errorf("sched: stream override %s=%q: %w", k, v, err)
			}
			switch k {
			case "load":
				c.TargetLoad = f
			case "gap":
				c.MeanGap = f
			case "appsigma":
				c.AppSigma = f
			case "threadsigma":
				c.ThreadSigma = f
			}
		default:
			return c, fmt.Errorf("sched: unknown stream override %q (valid: load, gap, minthreads, maxthreads, appsigma, threadsigma)", k)
		}
	}
	return c, nil
}

// withDefaults resolves zero fields to the documented defaults.
func (c GenConfig) withDefaults() GenConfig {
	if c.MeanGap == 0 {
		c.MeanGap = 100
	}
	if c.TargetLoad == 0 {
		c.TargetLoad = 0.6
	}
	if c.MinThreads == 0 {
		c.MinThreads = 2
	}
	if c.MaxThreads == 0 {
		c.MaxThreads = 16
	}
	if c.AppSigma == 0 {
		c.AppSigma = 1.2
	}
	if c.ThreadSigma == 0 {
		c.ThreadSigma = 0.3
	}
	return c
}

// Extremes of the generator's random draws, which bound every value an
// accepted GenConfig can generate.
var (
	// maxNormal is the largest |z| stats.Rand.NormFloat64 returns: the
	// Box–Muller radius sqrt(-2 ln u) peaks at the smallest nonzero
	// uniform draw, 2^-53.
	maxNormal = math.Sqrt(-2 * math.Log(0x1p-53))
	// maxExp is the largest stats.Rand.ExpFloat64 draw, -ln 2^-53.
	maxExp = -math.Log(0x1p-53)
	// maxSigma bounds AppSigma+ThreadSigma. A thread's cache rate is
	// exp(AppSigma·z1)·exp(ThreadSigma·z2) ≤ exp((AppSigma+ThreadSigma)·maxNormal),
	// and its memory rate is a fraction of that, so at this bound every
	// generated rate stays within workload.MaxRate (about 3.22; the
	// defaults sum to 1.5).
	maxSigma = math.Log(workload.MaxRate) / maxNormal
)

// Validate reports configuration errors in c as the generator runs it,
// with zero fields resolved to their defaults. Beyond the structural
// checks it bounds the load shape so that every accepted config
// terminates with finite output:
//
//   - TargetLoad lies in (0, 1];
//   - MeanGap is at least one tick. Lifetimes are at least one tick,
//     and while the chip is full arrivals balk about 1/MeanGap times per
//     tick, so a vanishing gap never reaches the next departure;
//   - AppSigma and ThreadSigma are non-negative with a sum of at most
//     maxSigma, so every rate stays finite and within workload.MaxRate;
//   - the latest possible event time stays inside int64 ticks. Each
//     event advances the generator's horizon by at most two arrival gaps
//     and one lifetime, each drawn at its maximum.
//
// The negated comparisons also reject NaN.
func (c GenConfig) Validate() error {
	c = c.withDefaults()
	if c.Events <= 0 {
		return fmt.Errorf("sched: generator needs Events > 0, got %d", c.Events)
	}
	if c.Tiles <= 0 {
		return fmt.Errorf("sched: generator needs Tiles > 0, got %d", c.Tiles)
	}
	if !(c.TargetLoad > 0 && c.TargetLoad <= 1) {
		return fmt.Errorf("sched: generator load %v outside (0, 1]", c.TargetLoad)
	}
	if !(c.MeanGap >= 1 && c.MeanGap <= math.MaxFloat64) {
		return fmt.Errorf("sched: generator gap %v is not a finite number of ticks >= 1", c.MeanGap)
	}
	if c.MinThreads < 1 || c.MaxThreads < c.MinThreads {
		return fmt.Errorf("sched: bad thread range [%d,%d]", c.MinThreads, c.MaxThreads)
	}
	if c.MinThreads > c.Tiles {
		return fmt.Errorf("sched: MinThreads %d exceeds chip capacity %d", c.MinThreads, c.Tiles)
	}
	if !(c.AppSigma >= 0 && c.ThreadSigma >= 0 && c.AppSigma+c.ThreadSigma <= maxSigma) {
		return fmt.Errorf("sched: generator sigmas (app %v, thread %v) must be >= 0 with a sum of at most %.4g",
			c.AppSigma, c.ThreadSigma, maxSigma)
	}
	gap := maxExp * c.MeanGap
	life := maxExp*c.meanLife() + 1
	n := float64(c.Events)
	if horizon := gap*(2*n+1) + n*life + c.MeanGap + 1; !(horizon < 0x1p62) {
		return fmt.Errorf("sched: generator gap %v can push %d events past int64 ticks", c.MeanGap, c.Events)
	}
	return nil
}

// meanLife is the mean application lifetime that holds the chip at
// TargetLoad occupancy by Little's law.
func (c GenConfig) meanLife() float64 {
	meanThreads := (float64(c.MinThreads) + float64(c.MaxThreads)) / 2
	return c.TargetLoad * float64(c.Tiles) * c.MeanGap / meanThreads
}

// pendingDep is a scheduled departure.
type pendingDep struct {
	at      float64
	name    string
	threads int
}

// depHeap is a min-heap of pending departures by time (name breaks
// ties for determinism).
type depHeap []pendingDep

func (h depHeap) Len() int { return len(h) }
func (h depHeap) Less(a, b int) bool {
	if h[a].at != h[b].at {
		return h[a].at < h[b].at
	}
	return h[a].name < h[b].name
}
func (h depHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *depHeap) Push(x interface{}) { *h = append(*h, x.(pendingDep)) }
func (h *depHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Generator streams a synthetic timeline: Poisson arrivals with
// lognormal request-rate hierarchies and exponential lifetimes sized by
// Little's law so the chip sits near TargetLoad occupancy. It
// implements Source; memory use is O(live applications), independent of
// Events. Deterministic for a fixed GenConfig.
type Generator struct {
	cfg GenConfig

	times, sizes, rates, lives *stats.Rand

	clock       float64
	nextArrival float64
	deps        depHeap
	free        int
	meanLife    float64
	emitted     int
	nextID      int
	lastTime    int64
}

// NewGenerator validates cfg (after default resolution) and builds a
// generator positioned before the first event.
func NewGenerator(cfg GenConfig) (*Generator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		cfg:      cfg,
		times:    stats.NewRand(stats.SplitSeed(cfg.Seed, 1)),
		sizes:    stats.NewRand(stats.SplitSeed(cfg.Seed, 2)),
		rates:    stats.NewRand(stats.SplitSeed(cfg.Seed, 3)),
		lives:    stats.NewRand(stats.SplitSeed(cfg.Seed, 4)),
		free:     cfg.Tiles,
		meanLife: cfg.meanLife(),
	}
	g.nextArrival = g.times.ExpFloat64() * cfg.MeanGap
	return g, nil
}

// Len implements Source.
func (g *Generator) Len() int { return g.cfg.Events }

// End implements Source: one mean gap past the last emitted event
// (final only after exhaustion).
func (g *Generator) End() int64 { return g.lastTime + int64(g.cfg.MeanGap) + 1 }

// Next implements Source.
func (g *Generator) Next() (Event, bool) {
	for g.emitted < g.cfg.Events {
		// Departures due before the next arrival fire first.
		if len(g.deps) > 0 && g.deps[0].at <= g.nextArrival {
			d := heap.Pop(&g.deps).(pendingDep)
			g.clock = d.at
			g.free += d.threads
			g.emitted++
			g.lastTime = int64(g.clock)
			return Event{Time: g.lastTime, Depart: d.name}, true
		}
		g.clock = g.nextArrival
		g.nextArrival = g.clock + g.times.ExpFloat64()*g.cfg.MeanGap
		threads := g.cfg.MinThreads + g.sizes.Intn(g.cfg.MaxThreads-g.cfg.MinThreads+1)
		if threads > g.free {
			threads = g.free
		}
		if threads < g.cfg.MinThreads {
			// Chip (nearly) full: this arrival balks; pending departures
			// will free capacity before a later one is admitted.
			continue
		}
		app := g.makeApp(threads)
		life := g.lives.ExpFloat64() * g.meanLife
		if life < 1 {
			life = 1
		}
		heap.Push(&g.deps, pendingDep{at: g.clock + life, name: app.Name, threads: threads})
		g.free -= threads
		g.emitted++
		g.lastTime = int64(g.clock)
		return Event{Time: g.lastTime, Arrive: app}, true
	}
	return Event{}, false
}

// makeApp draws an application with a lognormal per-app intensity and
// mild per-thread variation, memory traffic a bounded fraction of cache
// traffic — the same hierarchy workload.Generate uses.
func (g *Generator) makeApp(threads int) *workload.Application {
	g.nextID++
	app := &workload.Application{Name: fmt.Sprintf("app%07d", g.nextID)}
	scale := g.rates.LogNormal(0, g.cfg.AppSigma)
	app.Threads = make([]workload.Thread, threads)
	for i := range app.Threads {
		c := scale * g.rates.LogNormal(0, g.cfg.ThreadSigma)
		m := c * (0.1 + 0.4*g.rates.Float64())
		app.Threads[i] = workload.Thread{CacheRate: c, MemRate: m}
	}
	return app
}
