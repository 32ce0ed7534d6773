package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"obm/internal/artifact"
	"obm/internal/engine"
	"obm/internal/experiments"
	"obm/internal/scenario"
)

// TestExecuteColdWarmByteIdentical is the service-level acceptance
// property: the envelope is a pure function of the request and the
// artifact contents, so a warm re-execution — every mapper invocation
// served from the shared store — emits byte-identical output while
// computing nothing.
func TestExecuteColdWarmByteIdentical(t *testing.T) {
	scenario.ResetShared()
	t.Cleanup(func() { scenario.ResetShared() })
	req := Request{Experiments: []string{"table1"}, Quick: true, Configs: []string{"C1"}}

	cold, err := Execute(context.Background(), req, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Computed == 0 {
		t.Fatalf("cold run computed nothing: %+v", cold.Stats)
	}
	warm, err := Execute(context.Background(), req, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Computed != 0 || warm.Stats.MemHits == 0 {
		t.Errorf("warm run stats = %+v, want 0 computed and memory hits", warm.Stats)
	}
	if !bytes.Equal(cold.Envelope, warm.Envelope) {
		t.Error("warm envelope differs from cold: envelope is not a pure function of the request")
	}
}

// TestExecuteEnvelopeShape decodes the envelope and checks the schema,
// options echo, and experiment entries.
func TestExecuteEnvelopeShape(t *testing.T) {
	req := Request{Experiments: []string{"fig5", "table3"}, Quick: true, Seed: 7}
	out, err := Execute(context.Background(), req, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string `json:"schema"`
		Options struct {
			Seed      uint64 `json:"seed"`
			Quick     bool   `json:"quick"`
			CacheSize int64  `json:"cachesize"`
		} `json:"options"`
		Cache struct {
			Schema int `json:"artifact_schema"`
		} `json:"cache"`
		Experiments []ExperimentEntry `json:"experiments"`
	}
	if err := json.Unmarshal(out.Envelope, &doc); err != nil {
		t.Fatalf("envelope: %v", err)
	}
	if doc.Schema != RunSchema {
		t.Errorf("schema = %q", doc.Schema)
	}
	if doc.Options.Seed != 7 || !doc.Options.Quick || doc.Options.CacheSize != DefaultCacheSize {
		t.Errorf("options echo = %+v", doc.Options)
	}
	if doc.Cache.Schema != artifact.SchemaVersion {
		t.Errorf("artifact schema = %d", doc.Cache.Schema)
	}
	if len(doc.Experiments) != 2 || doc.Experiments[0].ID != "fig5" || doc.Experiments[1].ID != "table3" {
		t.Fatalf("entries = %+v", doc.Experiments)
	}
	for _, e := range doc.Experiments {
		if e.Title == "" || !json.Valid(e.Result) {
			t.Errorf("entry %s malformed", e.ID)
		}
	}
}

// TestExecuteStreamsResults checks OnResult receives each result with
// its already-encoded JSON document as it completes.
func TestExecuteStreamsResults(t *testing.T) {
	var streamed []string
	req := Request{Experiments: []string{"fig5", "table3"}, Quick: true}
	_, err := Execute(context.Background(), req, ExecConfig{
		OnResult: func(res ExperimentResult, raw json.RawMessage) {
			if res.Err == nil && !json.Valid(raw) {
				t.Errorf("%s raw document invalid", res.ID)
			}
			streamed = append(streamed, res.ID)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 2 || streamed[0] != "fig5" || streamed[1] != "table3" {
		t.Errorf("streamed = %v", streamed)
	}
}

// TestExecuteMetricsBlock: the Metrics option embeds an
// obsim.metrics/v1 block; off omits the key entirely.
func TestExecuteMetricsBlock(t *testing.T) {
	req := Request{Experiments: []string{"fig5"}, Quick: true}
	out, err := Execute(context.Background(), req, ExecConfig{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(out.Envelope, &doc); err != nil {
		t.Fatal(err)
	}
	var mb MetricsBlock
	if err := json.Unmarshal(doc["metrics"], &mb); err != nil || mb.Schema != MetricsSchema {
		t.Errorf("metrics block = %+v, %v", mb, err)
	}

	out, err = Execute(context.Background(), req, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	doc = nil
	if err := json.Unmarshal(out.Envelope, &doc); err != nil {
		t.Fatal(err)
	}
	if _, present := doc["metrics"]; present {
		t.Error("metrics block present without the option")
	}
}

// TestResolveBadRequests: every malformed request resolves to a typed
// ErrBadRequest before any work runs — among them -stream values the
// timeline generator cannot run (non-finite or out-of-range load, gap,
// thread range or sigmas), some of which used to hang the dynstream
// runner or fail it mid-run.
func TestResolveBadRequests(t *testing.T) {
	cases := []Request{
		{},
		{Experiments: []string{"nope"}},
		{Experiments: []string{"fig5", "bogus"}},
		{Experiments: []string{"fig5"}, Objective: "nonsense"},
		{Experiments: []string{"fig5"}, Configs: []string{"C99"}},
	}
	for _, spec := range []string{
		"load=NaN", "gap=NaN", "load=-1", "maxthreads=-5", "appsigma=NaN", "threadsigma=1e6",
		"load=Inf", "gap=Inf", "gap=-5", "gap=1e300", "appsigma=-1",
	} {
		cases = append(cases, Request{Experiments: []string{"dynstream"}, Quick: true, Stream: spec})
	}
	for _, req := range cases {
		if _, _, err := req.Resolve(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Resolve(%+v) = %v, want ErrBadRequest", req, err)
		}
	}
	if _, runners, err := (Request{Experiments: []string{"all"}}).Resolve(); err != nil || len(runners) < 20 {
		t.Errorf("all: %d runners, %v", len(runners), err)
	}
}

// TestExecuteCancelKeepsPartial: an interrupted batch keeps the
// completed prefix in the envelope, the CLI's partial-results contract.
func TestExecuteCancelKeepsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	req := Request{Experiments: []string{"fig5", "fig11"}, Quick: false}
	var seen int
	out, err := Execute(ctx, req, ExecConfig{
		OnResult: func(res ExperimentResult, raw json.RawMessage) {
			seen++
			if seen == 1 {
				cancel() // fig5 done; kill the batch before fig11 finishes
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if len(out.Entries) != 1 || out.Entries[0].ID != "fig5" {
		t.Fatalf("partial entries = %+v", out.Entries)
	}
	var doc struct {
		Experiments []ExperimentEntry `json:"experiments"`
	}
	if err := json.Unmarshal(out.Envelope, &doc); err != nil || len(doc.Experiments) != 1 {
		t.Errorf("partial envelope: %v, %d entries", err, len(doc.Experiments))
	}
}

// TestStatsDelta: every counter of a job's artifact stats is the
// difference of the two readings, and the occupancy levels keep the
// after-reading.
func TestStatsDelta(t *testing.T) {
	before := artifact.Stats{MemHits: 1, DiskHits: 2, Computed: 3, DiskEvictions: 4,
		DiskCorrupt: 5, DiskSchema: 6, DiskEntries: 7, DiskBytes: 8}
	after := artifact.Stats{MemHits: 11, DiskHits: 13, Computed: 17, DiskEvictions: 23,
		DiskCorrupt: 29, DiskSchema: 37, DiskEntries: 41, DiskBytes: 43}
	// Every field is set, so a field added to Stats must join this test.
	v := reflect.ValueOf(after)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("after.%s unset", v.Type().Field(i).Name)
		}
	}
	want := artifact.Stats{MemHits: 10, DiskHits: 11, Computed: 14, DiskEvictions: 19,
		DiskCorrupt: 24, DiskSchema: 31, DiskEntries: 41, DiskBytes: 43}
	if got := statsDelta(before, after); got != want {
		t.Errorf("statsDelta = %+v, want %+v", got, want)
	}
}

// fakeRunner is an experiments.Runner whose Run is a test closure, so
// the execution loop can be driven without the real experiments.
type fakeRunner struct {
	id  string
	run func(ctx context.Context) error
}

func (f fakeRunner) ID() string    { return f.id }
func (f fakeRunner) Title() string { return "fake " + f.id }
func (f fakeRunner) Run(ctx context.Context, _ experiments.Options) (experiments.Result, error) {
	if err := f.run(ctx); err != nil {
		return nil, err
	}
	return fakeResult(f.id), nil
}

// fakeResult renders as its ID.
type fakeResult string

func (r fakeResult) Render() string        { return string(r) }
func (r fakeResult) CSV() string           { return string(r) }
func (r fakeResult) JSON() ([]byte, error) { return json.Marshal(string(r)) }

func ok(id string) fakeRunner {
	return fakeRunner{id: id, run: func(context.Context) error { return nil }}
}

func ids(res []ExperimentResult) string {
	var s []string
	for _, r := range res {
		s = append(s, r.ID)
	}
	return strings.Join(s, ",")
}

func entryIDs(es []ExperimentEntry) string {
	var s []string
	for _, e := range es {
		s = append(s, e.ID)
	}
	return strings.Join(s, ",")
}

// TestExecutePanicBecomesFailedResult: a panicking experiment is
// converted into a failed result whose error carries the panic value
// and a stack; the process survives and the result still streams.
func TestExecutePanicBecomesFailedResult(t *testing.T) {
	var streamed []string
	out := &Outcome{}
	err := out.run(context.Background(), experiments.Options{}, []experiments.Runner{
		ok("first"),
		fakeRunner{id: "boom", run: func(context.Context) error { panic("kaboom") }},
	}, ExecConfig{OnResult: func(res ExperimentResult, _ json.RawMessage) { streamed = append(streamed, res.ID) }})
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want the experiment and panic value", err)
	}
	if !strings.Contains(err.Error(), "exec_test.go") {
		t.Errorf("panic error carries no stack: %v", err)
	}
	if ids(out.Results) != "first,boom" || out.Results[0].Err != nil || out.Results[1].Err == nil || out.Results[1].Result != nil {
		t.Errorf("results = %+v", out.Results)
	}
	if entryIDs(out.Entries) != "first" || strings.Join(streamed, ",") != "first,boom" {
		t.Errorf("entries %s, streamed %v", entryIDs(out.Entries), streamed)
	}
}

// TestExecutePanicStopsBatch: a panic ends the batch exactly like a
// returned error; no experiment after it runs.
func TestExecutePanicStopsBatch(t *testing.T) {
	after := false
	out := &Outcome{}
	err := out.run(context.Background(), experiments.Options{}, []experiments.Runner{
		fakeRunner{id: "boom", run: func(context.Context) error { panic("kaboom") }},
		fakeRunner{id: "after", run: func(context.Context) error { after = true; return nil }},
	}, ExecConfig{})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	if after {
		t.Error("batch continued past a panic")
	}
	if ids(out.Results) != "boom" || len(out.Entries) != 0 {
		t.Errorf("results %s, entries %s; want only the failed boom", ids(out.Results), entryIDs(out.Entries))
	}
}

// TestExecuteStopsAtFirstFailure: the first failing experiment ends
// the batch; the completed prefix stays in Results and Entries.
func TestExecuteStopsAtFirstFailure(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	count := func(err error) func(context.Context) error {
		return func(context.Context) error { ran++; return err }
	}
	out := &Outcome{}
	err := out.run(context.Background(), experiments.Options{}, []experiments.Runner{
		fakeRunner{id: "a", run: count(nil)},
		fakeRunner{id: "b", run: count(nil)},
		fakeRunner{id: "bad", run: count(boom)},
		fakeRunner{id: "never", run: count(nil)},
	}, ExecConfig{})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err = %v, want boom wrapped with the experiment ID", err)
	}
	if ran != 3 || ids(out.Results) != "a,b,bad" || entryIDs(out.Entries) != "a,b" {
		t.Errorf("ran %d; results %s; entries %s", ran, ids(out.Results), entryIDs(out.Entries))
	}
}

// TestExecuteCancelBeforeStart: a context cancelled before the run
// starts runs nothing, through the loop and through Execute.
func TestExecuteCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := &Outcome{}
	err := out.run(ctx, experiments.Options{}, []experiments.Runner{
		fakeRunner{id: "x", run: func(context.Context) error { t.Error("experiment ran under a cancelled context"); return nil }},
	}, ExecConfig{})
	if !errors.Is(err, context.Canceled) || len(out.Results) != 0 {
		t.Fatalf("err = %v, results %+v; want canceled and none", err, out.Results)
	}

	res, err := Execute(ctx, Request{Experiments: []string{"table1"}, Quick: true}, ExecConfig{})
	if !errors.Is(err, context.Canceled) || len(res.Results) != 0 || len(res.Entries) != 0 {
		t.Fatalf("Execute: err = %v, %d results; want canceled and none", err, len(res.Results))
	}
}

// TestExecuteDeadlineKeepsPrefix: an experiment that dies of the
// caller's deadline reports an interruption wrapping
// DeadlineExceeded, and the experiments before it are kept.
func TestExecuteDeadlineKeepsPrefix(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	out := &Outcome{}
	err := out.run(ctx, experiments.Options{}, []experiments.Runner{
		ok("fast"),
		fakeRunner{id: "slow", run: func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }},
		ok("never"),
	}, ExecConfig{})
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want an interruption wrapping DeadlineExceeded", err)
	}
	if ids(out.Results) != "fast,slow" || entryIDs(out.Entries) != "fast" {
		t.Errorf("results %s, entries %s", ids(out.Results), entryIDs(out.Entries))
	}
}

// TestExecuteInstallsSink: the configured sink receives the "batch"
// stage and every stage the experiments report below it.
func TestExecuteInstallsSink(t *testing.T) {
	j := &Journal{}
	out := &Outcome{}
	err := out.run(context.Background(), experiments.Options{}, []experiments.Runner{
		fakeRunner{id: "probe", run: func(ctx context.Context) error {
			engine.StartStage(ctx, "inner").Finish(1, 1)
			return nil
		}},
	}, ExecConfig{Sink: j})
	if err != nil {
		t.Fatal(err)
	}
	evs, _ := j.Since(0)
	if len(evs) == 0 {
		t.Fatal("the sink received no events")
	}
	stages := map[string]bool{}
	for _, ev := range evs {
		stages[ev.Stage] = true
	}
	if !stages["inner"] || !stages["batch"] {
		t.Errorf("stages seen: %v, want inner and batch", stages)
	}
	if last := evs[len(evs)-1]; last.Stage != "batch" || !last.Final || last.Done != 1 || last.Total != 1 {
		t.Errorf("last event = %+v, want the batch stage's Final 1/1", last)
	}
}

// TestExecuteStampsSequencePerJournal: every event a batch reports
// through a job's journal carries Seq from 1, and numbering restarts
// with each new journal.
func TestExecuteStampsSequencePerJournal(t *testing.T) {
	for round := 0; round < 2; round++ {
		j := &Journal{}
		out := &Outcome{}
		err := out.run(context.Background(), experiments.Options{}, []experiments.Runner{
			fakeRunner{id: "probe", run: func(ctx context.Context) error {
				rep := engine.StartStage(ctx, "inner")
				rep.Report(1, 2)
				rep.Finish(2, 2)
				return nil
			}},
		}, ExecConfig{Sink: j})
		if err != nil {
			t.Fatal(err)
		}
		evs, _ := j.Since(0)
		if len(evs) == 0 {
			t.Fatal("no events")
		}
		for i, ev := range evs {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("round %d: event %d Seq = %d, want %d", round, i, ev.Seq, i+1)
			}
		}
	}
}

// TestJournalSeqGaplessUnderConcurrentReporters: experiments whose
// workers report concurrently through a job's journal still produce
// Seq 1..n with no gaps, in the order the journal received them.
func TestJournalSeqGaplessUnderConcurrentReporters(t *testing.T) {
	const workers, per = 8, 200
	j := &Journal{}
	report := func(ctx context.Context) error {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					engine.SinkOf(ctx).Event(engine.Progress{Stage: "worker", Done: i})
				}
			}()
		}
		wg.Wait()
		return nil
	}
	out := &Outcome{}
	runners := []experiments.Runner{fakeRunner{id: "a", run: report}, fakeRunner{id: "b", run: report}}
	if err := out.run(context.Background(), experiments.Options{}, runners, ExecConfig{Sink: j}); err != nil {
		t.Fatal(err)
	}
	evs, cur := j.Since(0)
	workerEvents := 0
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Stage == "worker" {
			workerEvents++
		}
	}
	if workerEvents != 2*workers*per || cur != uint64(len(evs)) {
		t.Errorf("%d worker events, cursor %d of %d; want %d", workerEvents, cur, len(evs), 2*workers*per)
	}
}
