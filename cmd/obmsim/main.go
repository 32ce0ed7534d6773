// Command obmsim regenerates the paper's tables and figures.
//
// Usage:
//
//	obmsim -exp table1            # one experiment
//	obmsim -exp all               # everything, in order
//	obmsim -list                  # show available experiments
//	obmsim -exp fig9 -configs C1,C2 -quick -csv out.csv
//	obmsim -exp objective                # mapper x objective grid
//	obmsim -exp fig9 -objective dev      # optimize dev-APL instead of max-APL
//	obmsim -exp fig3,fig9 -svgdir figs   # also write SVG figures
//	obmsim -exp all -timeout 2m -progress # bounded run with a stderr ticker
//	obmsim -exp all -quick -metrics       # print the run's metrics table
//	obmsim -exp fig9 -pprof 127.0.0.1:6060 -cpuprofile cpu.out
//
// Each experiment prints a paper-style table or grid; -csv additionally
// writes machine-readable output, and -json / -jsondir write the typed
// result documents (schema obmsim.result/v1). The whole run is
// cancellable: SIGINT or SIGTERM (or -timeout expiry) stops the
// in-flight experiment promptly, keeps everything already printed, and
// exits non-zero with a note on how far the batch got.
//
// The command is a thin synchronous client of internal/service: flags
// assemble a service.Request, service.Execute runs it, and the -json
// envelope is the service's — byte-identical to what the obmsimd
// daemon returns for the same request.
//
// Observability: -metrics prints the process metrics registry (NoC flit
// and cycle counters, replica utilization, mapper wall time, cache
// hits/misses, per-experiment durations) after the run — as an aligned
// table, or as Prometheus text exposition with -metricsfmt prom — and
// embeds the same snapshot as an obsim.metrics/v1 block in the -json
// envelope; -pprof serves net/http/pprof, and -cpuprofile/-memprofile
// write runtime profiles for offline `go tool pprof`.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"obm/internal/artifact"
	"obm/internal/engine"
	"obm/internal/experiments"
	"obm/internal/obs"
	"obm/internal/scenario"
	"obm/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// progressWriter formats one-line progress events for stderr. Spacing
// is the engine.Throttled wrapper's job (installed in run); Throttled
// never drops Skipped or Final events, so the per-stage completion
// line from Reporter.Finish always reaches the terminal.
type progressWriter struct {
	w io.Writer

	mu sync.Mutex
}

func (s *progressWriter) Event(p engine.Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.Skipped {
		// Cache hits are rare, cheap, and the run's main observability
		// signal. The stage prefix names the serving tier ("cached:"
		// memory, "disk:" persistent).
		tier := "cache hit"
		if strings.HasPrefix(p.Stage, "disk:") {
			tier = "disk hit"
		}
		fmt.Fprintf(s.w, "progress: %s skipped (%s)\n", p.Stage, tier)
		return
	}
	if p.Total > 0 {
		fmt.Fprintf(s.w, "progress: %s %d/%d (%v)\n", p.Stage, p.Done, p.Total, p.Elapsed.Round(time.Millisecond))
	} else {
		fmt.Fprintf(s.w, "progress: %s %d (%v)\n", p.Stage, p.Done, p.Elapsed.Round(time.Millisecond))
	}
}

// run executes the tool; factored out of main so the tests can drive it
// with their own context and buffers.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "", "experiment ID (see -list), or 'all'")
		list       = fs.Bool("list", false, "list available experiments")
		quick      = fs.Bool("quick", false, "smaller sample budgets (faster, noisier)")
		seed       = fs.Uint64("seed", 1, "base random seed")
		configs    = fs.String("configs", "", "comma-separated configuration subset (e.g. C1,C5)")
		objective  = fs.String("objective", "", "optimization objective for the optimizing mappers: max (default), dev, global, ratio, or weighted:max=1,dev=2")
		cacheDir   = fs.String("cachedir", "", "directory for the persistent mapper-artifact cache shared across runs (empty: in-memory only); artifacts are content-addressed, so any run may share a directory")
		cacheSize  = fs.Int64("cachesize", 0, "byte budget for -cachedir (least-recently-used artifacts are evicted; 0: the 256 MiB default, < 0: unbounded)")
		stream     = fs.String("stream", "", "dynstream timeline generator overrides, comma-separated key=value (load, gap, minthreads, maxthreads, appsigma, threadsigma); e.g. load=0.8,maxthreads=24")
		csvPath    = fs.String("csv", "", "also write CSV output to this file")
		svgDir     = fs.String("svgdir", "", "write SVG figures for experiments that support them into this directory")
		timeout    = fs.Duration("timeout", 0, "wall-clock budget for the whole run; completed experiments are kept on expiry")
		progress   = fs.Bool("progress", false, "print throttled progress events to stderr")
		jsonPath   = fs.String("json", "", "write all results as one JSON document to this file")
		jsonDir    = fs.String("jsondir", "", "write each experiment's JSON document to <dir>/<id>.json")
		metrics    = fs.Bool("metrics", false, "print the run's metrics and embed an obsim.metrics/v1 block in -json output")
		metricsFmt = fs.String("metricsfmt", "table", "format for -metrics output: table, or prom (Prometheus text exposition)")
		pprofSrv   = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060) for the run's duration")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pprofSrv != "" {
		stop, err := startPprof(*pprofSrv, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "obmsim:", err)
			return 2
		}
		defer stop()
	}
	if *cpuProf != "" {
		stop, err := startCPUProfile(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, "obmsim:", err)
			return 2
		}
		defer stop()
	}
	if *memProf != "" {
		defer func() {
			if err := writeHeapProfile(*memProf); err != nil {
				fmt.Fprintln(stderr, "obmsim:", err)
			}
		}()
	}

	if *list {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range service.Experiments() {
			fmt.Fprintf(stdout, "  %-9s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "obmsim: -exp required (or -list); e.g. obmsim -exp table1")
		return 2
	}
	if *metricsFmt != "table" && *metricsFmt != "prom" {
		fmt.Fprintf(stderr, "obmsim: -metricsfmt %q: want table or prom\n", *metricsFmt)
		return 2
	}

	// Flags become the transport-neutral request the service layer
	// executes — the same structure a daemon job posts as JSON.
	req := service.Request{
		Quick:     *quick,
		Seed:      *seed,
		Objective: *objective,
		CacheDir:  *cacheDir,
		CacheSize: *cacheSize,
		Stream:    *stream,
	}
	if *configs != "" {
		req.Configs = strings.Split(*configs, ",")
	}
	if *exp == "all" {
		req.Experiments = []string{"all"}
	} else {
		req.Experiments = strings.Split(*exp, ",")
	}

	// Resolve up front so usage mistakes (unknown experiment, bad
	// objective, unknown config) exit 2 before any work, as they always
	// have; the runner list also gives the batch total for the
	// interruption summary below.
	_, runners, err := req.Resolve()
	if err != nil {
		fmt.Fprintln(stderr, "obmsim:", strings.TrimPrefix(err.Error(), service.ErrBadRequest.Error()+": "))
		return 2
	}
	titles := make(map[string]string, len(runners))
	for _, r := range runners {
		titles[r.ID()] = r.Title()
	}

	// Attaching the artifact disk tier is the host's job: once per run
	// here, once per process in the daemon.
	if *cacheDir != "" {
		if _, err := scenario.ConfigureShared(*cacheDir, req.Normalized().CacheSize); err != nil {
			fmt.Fprintln(stderr, "obmsim:", err)
			return 2
		}
	}

	// OnResult streams each experiment's output as soon as it finishes,
	// so an interrupted batch still shows everything that completed.
	var csv strings.Builder
	printed := 0
	var writeErr error
	cfg := service.ExecConfig{
		Metrics: *metrics,
		OnResult: func(res service.ExperimentResult, raw json.RawMessage) {
			if res.Err != nil || writeErr != nil {
				return
			}
			if printed > 0 {
				fmt.Fprintln(stdout)
			}
			printed++
			r := res.Result
			fmt.Fprint(stdout, r.Render())
			fmt.Fprintf(stdout, "[%s in %v]\n", res.ID, res.Elapsed.Round(time.Millisecond))
			if *csvPath != "" {
				fmt.Fprintf(&csv, "# %s: %s\n%s", res.ID, titles[res.ID], r.CSV())
			}
			if *jsonDir != "" && raw != nil {
				writeErr = writeJSONArtifact(stdout, *jsonDir, res.ID, raw)
				if writeErr != nil {
					return
				}
			}
			if *svgDir != "" {
				if fig, ok := r.(experiments.Figurer); ok {
					writeErr = writeSVGs(stdout, *svgDir, fig)
				}
			}
		},
	}
	if *progress {
		cfg.Sink = engine.Throttled(&progressWriter{w: stderr}, 250*time.Millisecond)
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	out, err := service.Execute(ctx, req, cfg)
	if out == nil {
		out = &service.Outcome{}
	}
	if *progress {
		fmt.Fprintf(stderr, "obmsim: mapper artifact store: %d computed, %d memory hits, %d disk hits\n",
			out.Stats.Computed, out.Stats.MemHits, out.Stats.DiskHits)
	}
	// The printed metrics render the snapshot Execute embedded in the
	// envelope, so the two can never disagree; the cache summary line is
	// derived from the same snapshot for the same reason.
	if *metrics && out.Metrics != nil {
		if printed > 0 {
			fmt.Fprintln(stdout)
		}
		snap := out.Metrics.Snapshot
		if *metricsFmt == "prom" {
			if werr := obs.WritePrometheus(stdout, snap); werr != nil {
				fmt.Fprintln(stderr, "obmsim: writing metrics:", werr)
				return 1
			}
		} else {
			computed, _ := snap.Counter("artifact.store.computed")
			memHits, _ := snap.Counter("artifact.mem.hits")
			diskHits, _ := snap.Counter("artifact.disk.hits")
			fmt.Fprintf(stdout, "mapper artifact store: %d computed, %d memory hits, %d disk hits\n",
				computed, memHits, diskHits)
			printMetrics(stdout, snap)
		}
	}
	if *csvPath != "" && csv.Len() > 0 {
		if werr := artifact.WriteFileAtomic(*csvPath, []byte(csv.String()), 0o644); werr != nil {
			fmt.Fprintln(stderr, "obmsim: writing csv:", werr)
			return 1
		}
		fmt.Fprintf(stdout, "CSV written to %s\n", *csvPath)
	}
	if *jsonPath != "" && len(out.Entries) > 0 && writeErr == nil {
		if werr := artifact.WriteFileAtomic(*jsonPath, out.Envelope, 0o644); werr != nil {
			fmt.Fprintln(stderr, "obmsim: writing json:", werr)
			return 1
		}
		fmt.Fprintf(stdout, "JSON written to %s\n", *jsonPath)
	}
	if writeErr != nil {
		fmt.Fprintln(stderr, "obmsim:", writeErr)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "obmsim: %v\n", err)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			done := 0
			for _, r := range out.Results {
				if r.Err == nil {
					done++
				}
			}
			fmt.Fprintf(stderr, "obmsim: interrupted; %d/%d experiments completed (partial results above)\n",
				done, len(runners))
		}
		return 1
	}
	return 0
}

// writeJSONArtifact writes one experiment's JSON document to
// dir/<id>.json. The write is atomic (temp file + rename, the artifact
// store's helper), so a SIGINT mid-write never leaves a truncated
// document behind — consumers see either the previous file or the
// complete new one.
func writeJSONArtifact(stdout io.Writer, dir, id string, raw []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, id+".json")
	if err := artifact.WriteFileAtomic(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// writeSVGs writes every figure of fig into dir.
func writeSVGs(stdout io.Writer, dir string, fig experiments.Figurer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for stem, svg := range fig.SVGFigures() {
		path := filepath.Join(dir, stem+".svg")
		if err := os.WriteFile(path, svg, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return nil
}
