package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one spawned obmsimd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port

	done    chan struct{} // closed once the process has been waited for
	waitErr error

	mu   sync.Mutex
	logs []string // stderr lines, for diagnostics
}

// startDaemon spawns bin serving on a free loopback port with its
// artifact disk tier at cacheDir, and returns once GET /v1/experiments
// answers 200, with a client on it. setup is that span, spawn to first
// 200, which includes indexing a warm cacheDir.
func startDaemon(ctx context.Context, bin, cacheDir string) (d *daemon, cl *client, setup time.Duration, err error) {
	start := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cachedir", cacheDir, "-concurrency", "1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, 0, fmt.Errorf("spawning obmsimd: %w", err)
	}
	d = &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1) // the one listening line; never blocks the reader
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.logs = append(d.logs, line)
			d.mu.Unlock()
			if a, ok := strings.CutPrefix(line, "obmsimd: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	defer func() {
		if err != nil {
			d.kill()
		}
	}()
	select {
	case d.base = <-addr:
	case <-d.done:
		return nil, nil, 0, fmt.Errorf("obmsimd exited during start-up: %v\n%s", d.waitErr, d.log())
	case <-ctx.Done():
		return nil, nil, 0, ctx.Err()
	case <-time.After(time.Minute):
		return nil, nil, 0, fmt.Errorf("obmsimd did not listen within a minute\n%s", d.log())
	}
	cl = newClient(d.base)
	if _, err := cl.do(ctx, "GET", "/v1/experiments", nil, 200); err != nil {
		return nil, nil, 0, fmt.Errorf("obmsimd readiness probe: %w", err)
	}
	return d, cl, time.Since(start), nil
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.logs, "\n")
}

// peakRSSMiB reads the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stop sends SIGTERM and waits for the graceful drain; a daemon that
// does not exit within a minute is killed. It reports a non-zero exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.done:
	case <-time.After(time.Minute):
		d.kill()
		return errors.New("obmsimd did not drain within a minute")
	}
	if d.waitErr != nil {
		return fmt.Errorf("obmsimd exit: %v\n%s", d.waitErr, d.log())
	}
	return nil
}

// kill ends the process at once and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// counters is a /metrics scrape: sample name → value.
type counters map[string]float64

// scrape reads the daemon's Prometheus exposition.
func scrape(ctx context.Context, c *client) (counters, error) {
	data, err := c.do(ctx, "GET", "/metrics", nil, 200)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	out := counters{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, nil
}

// delta returns after − before for every sample in after.
func delta(before, after counters) counters {
	out := counters{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add accumulates d into c.
func (c counters) add(d counters) {
	for k, v := range d {
		c[k] += v
	}
}

// prefixSum sums every sample whose name starts with prefix and ends
// with suffix.
func (c counters) prefixSum(prefix, suffix string) float64 {
	t := 0.0
	for k, v := range c {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			t += v
		}
	}
	return t
}
