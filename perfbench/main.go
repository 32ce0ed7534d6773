// Command perfbench is the repository's end-to-end benchmark. It builds
// cmd/obmsimd, spawns a fresh daemon for every pass of a workload, and
// drives it over HTTP the way a client would: submit, poll, fetch. The
// last line of standard output is one JSON object with the run's
// verdict and metrics; standard error carries the human-readable
// report. See README.md in this directory for the workloads and
// metrics, and run.sh for how to invoke it.
//
//	perfbench --workload paper-cold --seed 1 --seconds 15 --trace 0
//	perfbench compare OLD.json NEW.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: paper-cold, sim-sweep, churn or daemon-warm")
		seed    = fs.Uint64("seed", 1, "workload seed, passed to every job as its request seed (0 means 1, as in a request)")
		seconds = fs.Int("seconds", 10, "nominal measured time; sets how many passes the run makes")
		trace   = fs.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
		root    = fs.String("root", ".", "repository root holding go.mod and cmd/obmsimd")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "compare" {
		if fs.NArg() != 3 {
			fmt.Fprintln(stderr, "usage: perfbench compare OLD.json NEW.json")
			return 2
		}
		if err := compareRecords(stdout, fs.Arg(1), fs.Arg(2)); err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 2
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if *seed == 0 {
		*seed = 1
	}
	res, err := benchmark(ctx, w, *seed, *seconds, *trace == 1, *root, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// benchmark makes one run: build, set up, measure, check, report.
func benchmark(ctx context.Context, w workloadDef, seed uint64, seconds int, traced bool, root string, log io.Writer) (*result, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, ".bench_build", "perfbench")
	for _, sub := range []string{"records", "pins", "spans"} {
		if err := os.MkdirAll(filepath.Join(out, sub), 0o755); err != nil {
			return nil, err
		}
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	b := &bench{w: w, seed: seed, bin: filepath.Join(out, "obmsimd"), work: work, log: log, seen: make(map[string]string)}
	build := exec.CommandContext(ctx, "go", "build", "-o", b.bin, "./cmd/obmsimd")
	build.Dir, build.Stdout, build.Stderr = root, log, log
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("building cmd/obmsimd in %s: %w", root, err)
	}
	host, err := stampHost(root)
	if err != nil {
		return nil, err
	}
	if b.pins, err = loadPins(filepath.Join(out, "pins", fmt.Sprintf("seed-%d.json", seed))); err != nil {
		return nil, err
	}
	if w.warm {
		if err := b.prefill(ctx); err != nil {
			return nil, err
		}
	}

	passes := passCount(w, seconds)
	fmt.Fprintf(log, "perfbench: %s seed %d, %d passes of %d jobs, %d client(s), on %s\n",
		w.name, seed, passes, len(w.jobs(seed)), w.clients, host.shape())
	var tr *tracer
	top := 0
	if traced {
		tr = newTracer()
		top = tr.begin("run", 0)
	}
	untraced, tracedPasses, err := b.passes(ctx, passes, tr, top)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for _, p := range untraced {
		setups = append(setups, p.setup.Seconds()/p.slowdown)
	}
	for len(setups) < setupSamples {
		s, err := b.bareSetup(ctx)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	fid, err := b.fidelity(ctx)
	if err != nil {
		return nil, err
	}

	var values map[string]float64
	var defs []metricDef
	if traced {
		probe := tr.begin("probes", top)
		probeVals, err := probes(ctx, tr, probe, seed, w.quick, work)
		tr.end(probe)
		tr.end(top)
		if err != nil {
			return nil, err
		}
		values, defs = b.perLayerValues(untraced, tracedPasses, probeVals), perLayer
	} else {
		values, defs = b.endToEndValues(untraced, setups, fid), endToEnd
	}
	if err := b.pins.save(); err != nil {
		return nil, err
	}

	res := &result{Attempted: b.tally.attempted, Failed: b.tally.failures(), Metrics: make(map[string]metricOut)}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if err := checkMetric(d.name, d.unit, v); err != nil {
			return nil, err
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	report(log, res, defs, b.tally)
	stem := fmt.Sprintf("%s-seed%d-untraced", w.name, seed)
	if traced {
		stem = fmt.Sprintf("%s-seed%d-traced", w.name, seed)
	}
	if tr != nil {
		tr.printSelfTimes(log)
		if err := tr.writeFile(filepath.Join(out, "spans", stem+".json")); err != nil {
			return nil, err
		}
	}
	rec := record{Host: host, Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced, Passes: passes,
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Checks: b.tally.checks, Metrics: res.Metrics,
		Untraced: passRecords(untraced)}
	if err := writeJSONFile(filepath.Join(out, "records", stem+".json"), rec); err != nil {
		return nil, err
	}
	return res, nil
}

// passes makes n untraced passes. With a tracer it also makes a traced
// twin of each, right after it and with its seed, so the two sets see
// the same host and their ratio is the tracing overhead. The last
// untraced pass also refetches one envelope.
func (b *bench) passes(ctx context.Context, n int, tr *tracer, parent int) (untraced, traced []pass, err error) {
	top := tr.begin("passes", parent)
	defer tr.end(top)
	for i := 0; i < n; i++ {
		p, err := b.runPass(ctx, b.passSeed(i), nil, 0, i == n-1)
		if err != nil {
			return nil, nil, err
		}
		untraced = append(untraced, p)
		if tr == nil {
			continue
		}
		if p, err = b.runPass(ctx, b.passSeed(i), tr, top, false); err != nil {
			return nil, nil, err
		}
		traced = append(traced, p)
	}
	return untraced, traced, nil
}

// passWalls returns each pass's wall time in seconds at the reference
// host speed.
func passWalls(ps []pass) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.wall.Seconds()/p.slowdown)
	}
	return out
}

// pairRatios returns each traced pass's wall time over its untraced
// twin's.
func pairRatios(traced, untraced []pass) []float64 {
	tw, uw := passWalls(traced), passWalls(untraced)
	out := make([]float64, len(tw))
	for i := range tw {
		out[i] = ratio(tw[i], uw[i])
	}
	return out
}

func slowdowns(ps []pass) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.slowdown)
	}
	return out
}

// endToEndValues computes the untraced run's metrics, host times at
// the reference host speed.
func (b *bench) endToEndValues(ps []pass, setups []float64, fid map[string]float64) map[string]float64 {
	var lat, rss []float64
	for _, p := range ps {
		rss = append(rss, p.rss)
		for _, o := range p.jobs {
			if o.fail == failNone {
				lat = append(lat, ms(o.latency)/p.slowdown)
			}
		}
	}
	v := map[string]float64{
		"setup_s":     median(setups),
		"run_s":       median(passWalls(ps)),
		"peak_rss_mb": median(rss),
	}
	t, pct, _ := tail(lat)
	fmt.Fprintf(b.log, "job latency over %d jobs: geomean %.3f ms, p50 %.3f ms, p%.2f %.3f ms; %.3f jobs/s\n",
		len(lat), geomean(lat), median(lat), pct, t, ratio(float64(len(lat)), sum(passWalls(ps))))
	for k, x := range fid {
		v[k] = x
	}
	return v
}

// perLayerValues computes the traced run's metrics: service times from
// the traced passes' jobs, counts from their /metrics deltas, and the
// probes' layer timings. These host times are raw; host.slowdown says
// how fast the host ran meanwhile.
func (b *bench) perLayerValues(untraced, traced []pass, probe map[string]float64) map[string]float64 {
	var queue, exec, overhead []float64
	polls, done := 0, 0
	total := counters{}
	for _, p := range traced {
		total.add(p.delta)
		for _, o := range p.jobs {
			if o.fail != failNone {
				continue
			}
			queue = append(queue, ms(o.started.Sub(o.created)))
			exec = append(exec, ms(o.finished.Sub(o.started)))
			overhead = append(overhead, ms(o.latency-o.finished.Sub(o.created)))
			polls += o.polls
			done++
		}
	}
	var wall float64
	for _, p := range traced {
		wall += p.wall.Seconds()
	}
	mem, disk, computed := total["artifact_mem_hits"], total["artifact_disk_hits"], total["artifact_store_computed"]
	attempts := total["sched_stream_remap_attempts"]
	v := map[string]float64{
		"service.queue_wait_ms.p50":    median(queue),
		"service.exec_ms.p50":          median(exec),
		"service.http_overhead_ms.p50": median(overhead),
		"service.polls_per_job":        ratio(float64(polls), float64(done)),
		"service.failed_ratio":         ratio(float64(b.tally.failures()), float64(b.tally.attempted)),
		"artifact.computed":            computed,
		"artifact.mem_hits":            mem,
		"artifact.disk_hits":           disk,
		"artifact.bypass":              total["artifact_store_bypass"],
		"artifact.hit_ratio":           ratio(mem+disk, mem+disk+computed),
		"noc.cycles":                   total["noc_cycles_stepped"],
		"noc.flits_delivered":          total["noc_flits_delivered"],
		"sim.replicas.jobs_failed":     total["sim_replicas_jobs_failed"],
		"sim_flits_per_s":              ratio(total["noc_flits_delivered"], wall),
		"sched.remap_attempts":         attempts,
		"sched.remap_rejected_ratio":   ratio(total["sched_stream_remap_rejected"], attempts),
		"sched.migrations":             total["sched_stream_migrations"],
		"stream_events_per_s":          ratio(total["sched_stream_events"], wall),
		"obs.tracing_overhead_pct":     100 * (median(pairRatios(traced, untraced)) - 1),
		"host.slowdown":                median(slowdowns(append(append([]pass(nil), untraced...), traced...))),
	}
	for _, a := range mapperAlgs {
		v["mapping."+a.name+".calls"] = total.prefixSum(a.promPrefix, "_calls")
	}
	for k, x := range probe {
		v[k] = x
	}
	return v
}

// report prints every metric with its unit, and the failures, to w.
func report(w io.Writer, res *result, defs []metricDef, t tally) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	kinds := make([]string, 0, len(t.failed))
	for k, n := range t.failed {
		kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "jobs attempted %d, failures %d (%s), failed checks %d\n", t.attempted, res.Failed, strings.Join(kinds, " "), len(t.checks))
	for _, c := range t.checks {
		fmt.Fprintln(w, "  check failed:", c)
	}
}
