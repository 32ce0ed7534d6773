package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"obm/internal/scenario"
	"obm/internal/service"
	"obm/internal/stats"
)

// setupSamples is how many daemon start-ups setup_s takes its median
// over; start-ups beyond the passes' own are bare spawn-and-stop.
const setupSamples = 9

// bench is one benchmark run of one workload.
type bench struct {
	w       workloadDef
	seed    uint64
	bin     string // the obmsimd binary
	work    string // scratch directory, removed when the run ends
	log     io.Writer
	tally   tally
	pins    *pins
	seen    map[string]string // request key → envelope digest earlier in this run
	ref     map[string]string // request key → digest of the in-process run (warm workload)
	warmDir string
	nextDir int
}

// pass is one fresh daemon serving the workload's job list once.
type pass struct {
	seed  uint64
	setup time.Duration
	wall  time.Duration // first submit → last envelope fetched
	jobs  []jobOutcome
	rss   float64 // MiB
	// slowdown is the host's speed around the pass, as a multiple of
	// the reference speed (hostSlowdown).
	slowdown float64
	delta    counters
}

// passSeed is the seed of pass i. Cold passes each take a seed derived
// from the workload seed, so a run's medians span several inputs and
// not one seed's particular cost; warm passes all serve the one seed
// the store was filled for.
func (b *bench) passSeed(i int) uint64 {
	if b.w.warm {
		return b.seed
	}
	return stats.SplitSeed(b.seed, i)
}

// cacheDir returns the directory a new daemon serves from: the warm
// store, or a fresh empty directory.
func (b *bench) cacheDir() string {
	if b.w.warm {
		return b.warmDir
	}
	b.nextDir++
	return filepath.Join(b.work, "cache-"+strconv.Itoa(b.nextDir))
}

// prefill runs paper-cold's requests in-process against the warm store
// directory, the CLI's execution path, and keeps their envelope digests
// as the reference every daemon-warm envelope must equal.
func (b *bench) prefill(ctx context.Context) error {
	b.warmDir = filepath.Join(b.work, "warm-cache")
	if _, err := scenario.ConfigureShared(b.warmDir, service.DefaultCacheSize); err != nil {
		return err
	}
	defer scenario.ResetShared()
	b.ref = make(map[string]string)
	for _, req := range perExperiment(paperIDs, b.seed, false) {
		out, err := service.Execute(ctx, req, service.ExecConfig{})
		if err != nil {
			return fmt.Errorf("prefilling the warm store: %w", err)
		}
		b.ref[requestKey(req)] = digest(out.Envelope)
	}
	return nil
}

// runPass spawns a daemon, runs the job list through it with the
// workload's closed-loop clients, and stops it. Errors are failures of
// the benchmark itself; job failures are tallied by the caller.
func (b *bench) runPass(ctx context.Context, seed uint64, tr *tracer, parent int, refetch bool) (p pass, err error) {
	dir := b.cacheDir()
	if !b.w.warm {
		defer os.RemoveAll(dir)
	}
	ps := tr.begin("pass", parent)
	defer tr.end(ps)
	slowBefore := hostSlowdown()
	sp := tr.begin("daemon.setup", ps)
	d, c0, setup, err := startDaemon(ctx, b.bin, dir)
	tr.end(sp)
	if err != nil {
		return p, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	p.seed, p.setup = seed, setup
	clients := []*client{c0}
	for len(clients) < b.w.clients {
		clients = append(clients, newClient(d.base))
	}
	before, err := scrape(ctx, c0)
	if err != nil {
		return p, err
	}

	reqs := b.w.jobs(seed)
	p.jobs = make([]jobOutcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				p.jobs[i] = c.runJob(ctx, reqs[i], tr, ps)
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return p, err
	}

	if refetch {
		b.refetchCheck(ctx, c0, p.jobs)
	}
	after, err := scrape(ctx, c0)
	if err != nil {
		return p, err
	}
	p.delta = delta(before, after)
	if p.rss, err = d.peakRSSMiB(); err != nil {
		return p, err
	}
	for _, c := range clients {
		c.close()
	}
	stopped = true
	if err := d.stop(); err != nil {
		b.tally.checkFailed("daemon did not drain cleanly: %v", err)
	}
	p.slowdown = (slowBefore + hostSlowdown()) / 2
	b.checkPass(p)
	return p, nil
}

// refetchCheck fetches the last finished job's envelope a second time;
// a retained result must come back byte-identical.
func (b *bench) refetchCheck(ctx context.Context, c *client, jobs []jobOutcome) {
	for i := len(jobs) - 1; i >= 0; i-- {
		if jobs[i].fail != failNone {
			continue
		}
		env, err := c.fetchResult(ctx, jobs[i].id)
		switch {
		case err != nil:
			b.tally.checkFailed("refetching %s: %v", jobs[i].id, err)
		case !bytes.Equal(env, jobs[i].envelope):
			b.tally.checkFailed("refetched envelope of %s differs from the first fetch", jobs[i].id)
		}
		return
	}
	b.tally.checkFailed("no finished job to refetch")
}

// checkPass tallies a pass's jobs and checks their outputs: every
// envelope equals the one its request produced earlier in this run, in
// earlier runs of this checkout, and in-process where that reference
// exists; and every flit injected was delivered.
func (b *bench) checkPass(p pass) {
	for _, o := range p.jobs {
		b.tally.job(o)
		if o.fail != failNone {
			fmt.Fprintf(b.log, "job failed (%s): %v\n", o.fail, o.err)
			continue
		}
		b.checkEnvelope(o.req, o.envelope)
	}
	if inj, del := p.delta["noc_flits_injected"], p.delta["noc_flits_delivered"]; inj != del {
		b.tally.checkFailed("NoC injected %v flits but delivered %v", inj, del)
	}
}

func (b *bench) checkEnvelope(req service.Request, env []byte) {
	key, dg := requestKey(req), digest(env)
	if prev, ok := b.seen[key]; ok && prev != dg {
		b.tally.checkFailed("envelope of %s changed within the run", key)
	}
	b.seen[key] = dg
	if err := b.pins.check(key, dg); err != nil {
		b.tally.checkFailed("%v", err)
	}
	if ref, ok := b.ref[key]; ok && ref != dg {
		b.tally.checkFailed("daemon envelope of %s differs from the in-process one", key)
	}
}

// bareSetup spawns a daemon, waits until it serves, and stops it. It
// returns the start-up time at the reference host speed.
func (b *bench) bareSetup(ctx context.Context) (float64, error) {
	dir := b.cacheDir()
	if !b.w.warm {
		defer os.RemoveAll(dir)
	}
	slowBefore := hostSlowdown()
	d, c, setup, err := startDaemon(ctx, b.bin, dir)
	if err != nil {
		return 0, err
	}
	c.close()
	if err := d.stop(); err != nil {
		b.tally.checkFailed("daemon did not drain cleanly: %v", err)
	}
	return setup.Seconds() / ((slowBefore + hostSlowdown()) / 2), nil
}

// fidelity runs the fixed reference requests through a fresh daemon
// and reads the paper-fidelity metrics out of their envelopes.
func (b *bench) fidelity(ctx context.Context) (map[string]float64, error) {
	dir := filepath.Join(b.work, "fidelity-cache")
	defer os.RemoveAll(dir)
	d, c, _, err := startDaemon(ctx, b.bin, dir)
	if err != nil {
		return nil, err
	}
	var docs []envelopeDoc
	for _, req := range fidelityRequests() {
		o := c.runJob(ctx, req, nil, 0)
		b.tally.job(o)
		if o.fail != failNone {
			fmt.Fprintf(b.log, "fidelity job failed (%s): %v\n", o.fail, o.err)
			continue
		}
		b.checkEnvelope(o.req, o.envelope)
		var doc envelopeDoc
		if err := json.Unmarshal(o.envelope, &doc); err != nil {
			b.tally.checkFailed("decoding a fidelity envelope: %v", err)
			continue
		}
		docs = append(docs, doc)
	}
	c.close()
	if err := d.stop(); err != nil {
		b.tally.checkFailed("daemon did not drain cleanly: %v", err)
	}
	m := make(map[string]float64)
	for _, f := range []struct {
		name  string
		id    string
		parse func(resultDoc) (float64, error)
	}{
		{"sss_maxapl_redux_pct", "fig9", sssRedux},
		{"model_err_cycles", "validate", modelErr},
		{"stream_dev_apl", "dynstream", adaptiveDevAPL},
	} {
		v, err := findResult(docs, f.id, f.parse)
		if err != nil {
			b.tally.checkFailed("%s: %v", f.name, err)
		}
		m[f.name] = v
	}
	return m, nil
}

// envelopeDoc is the part of an obmsim.run/v1 envelope the fidelity
// metrics read.
type envelopeDoc struct {
	Experiments []struct {
		ID     string    `json:"id"`
		Result resultDoc `json:"result"`
	} `json:"experiments"`
}

type resultDoc struct {
	Blocks []block `json:"blocks"`
}

// block is one table or series of an experiment's JSON document.
type block struct {
	Kind    string     `json:"kind"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Labels  []string   `json:"labels"`
	Series  []float64  `json:"series"`
}

func findResult(docs []envelopeDoc, id string, parse func(resultDoc) (float64, error)) (float64, error) {
	for _, d := range docs {
		for _, e := range d.Experiments {
			if e.ID == id {
				return parse(e.Result)
			}
		}
	}
	return 0, fmt.Errorf("no %s result", id)
}

// sssRedux is fig9's average max-APL reduction of SSS against Global,
// in percent (the paper reports 10.42%).
func sssRedux(r resultDoc) (float64, error) {
	for _, b := range r.Blocks {
		if b.Kind != "series" {
			continue
		}
		vals := make(map[string]float64)
		for i, l := range b.Labels {
			if i < len(b.Series) {
				vals[l] = b.Series[i]
			}
		}
		if g, s := vals["Global"], vals["SSS"]; g > 0 && s > 0 {
			return 100 * (1 - s/g), nil
		}
	}
	return 0, fmt.Errorf("fig9: no series with Global and SSS averages")
}

// modelErr is validate's mean |measured − model| APL in cycles.
func modelErr(r resultDoc) (float64, error) {
	for _, b := range r.Blocks {
		col := indexOf(b.Headers, "error")
		if b.Kind != "table" || col < 0 || len(b.Rows) == 0 {
			continue
		}
		total := 0.0
		for _, row := range b.Rows {
			if len(row) <= col {
				return 0, fmt.Errorf("validate: short row %q", row)
			}
			v, err := strconv.ParseFloat(strings.TrimPrefix(row[col], "+"), 64)
			if err != nil {
				return 0, fmt.Errorf("validate: error cell %q: %w", row[col], err)
			}
			total += max(v, -v)
		}
		return total / float64(len(b.Rows)), nil
	}
	return 0, fmt.Errorf("validate: no table with an error column")
}

// adaptiveDevAPL is dynstream's time-weighted dev-APL under the
// adaptive warm-SSS scheme.
func adaptiveDevAPL(r resultDoc) (float64, error) {
	for _, b := range r.Blocks {
		col := indexOf(b.Headers, "dev-APL")
		if b.Kind != "table" || col < 0 {
			continue
		}
		for _, row := range b.Rows {
			if len(row) > col && row[0] == "spiral+warm/adaptive" {
				return strconv.ParseFloat(row[col], 64)
			}
		}
	}
	return 0, fmt.Errorf("dynstream: no spiral+warm/adaptive row")
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
