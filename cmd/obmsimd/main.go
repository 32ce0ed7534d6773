// Command obmsimd serves the experiment runner as a long-running
// HTTP/JSON daemon — the asynchronous frontend to the same
// internal/service execution path cmd/obmsim drives synchronously, so
// a daemon job's result envelope is byte-identical to the CLI's for
// the same request.
//
// Usage:
//
//	obmsimd -addr 127.0.0.1:8093 -cachedir /var/cache/obm -concurrency 1
//
// API (see service.Handler for the full contract):
//
//	POST   /v1/jobs              submit a run request, returns 202 + job status
//	GET    /v1/jobs/{id}         job status + progress events (?cursor=N)
//	GET    /v1/jobs/{id}/result  the obmsim.run/v1 envelope
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/experiments       the experiment registry listing
//	GET    /metrics              Prometheus text exposition
//
// The artifact disk tier is attached once at startup (-cachedir);
// per-job cache overrides are rejected, so every job in the process
// shares one content-addressed store and warm re-submissions compute
// nothing.
//
// Shutdown: SIGINT or SIGTERM starts a graceful drain — the listener
// closes, queued jobs are rejected, in-flight jobs run to completion
// (bounded by -drain), and the process exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"obm/internal/scenario"
	"obm/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the daemon until ctx is cancelled (the signal path) or
// the listener fails; factored out of main so the tests can drive it
// with their own context and buffers.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obmsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8093", "listen address (host:port; port 0 picks a free port, printed to stderr)")
		cacheDir    = fs.String("cachedir", "", "directory for the persistent mapper-artifact cache shared by every job (empty: in-memory only)")
		cacheSize   = fs.Int64("cachesize", 0, "byte budget for -cachedir (least-recently-used artifacts are evicted; 0: the 256 MiB default, < 0: unbounded)")
		queueSize   = fs.Int("queue", service.DefaultQueue, "admission queue bound: jobs accepted but not yet running (submits beyond it get HTTP 429)")
		concurrency = fs.Int("concurrency", 1, "jobs running at once; 1 keeps per-job artifact stats exact")
		retention   = fs.Duration("retention", service.DefaultRetention, "how long finished jobs stay fetchable; < 0 retains forever")
		drainWait   = fs.Duration("drain", time.Minute, "shutdown budget for in-flight jobs; jobs still running when it expires are cancelled")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cacheDir != "" {
		size := service.Request{CacheSize: *cacheSize}.Normalized().CacheSize
		if _, err := scenario.ConfigureShared(*cacheDir, size); err != nil {
			fmt.Fprintln(stderr, "obmsimd:", err)
			return 2
		}
	}

	// Listening before serving reports bad addresses synchronously and
	// lets :0 pick a free port, printed so clients know where to point.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "obmsimd:", err)
		return 2
	}
	fmt.Fprintf(stderr, "obmsimd: listening on http://%s\n", ln.Addr())

	m := service.NewManager(service.Config{
		Queue:       *queueSize,
		Concurrency: *concurrency,
		Retention:   *retention,
	})
	srv := &http.Server{Handler: service.Handler(m)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died underneath us; nothing to drain gracefully.
		fmt.Fprintln(stderr, "obmsimd:", err)
		m.Close()
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight HTTP exchanges and
	// jobs finish within the drain budget, then report how it went.
	fmt.Fprintln(stderr, "obmsimd: shutdown requested; draining in-flight jobs")
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, "obmsimd: http shutdown:", err)
	}
	if err := m.Drain(dctx); err != nil {
		fmt.Fprintf(stderr, "obmsimd: drain incomplete after %v: %v\n", *drainWait, err)
		return 1
	}
	fmt.Fprintln(stderr, "obmsimd: drained cleanly")
	return 0
}
