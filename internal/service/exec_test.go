package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"obm/internal/artifact"
	"obm/internal/engine"
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
		OnResult: func(res engine.Result, raw json.RawMessage) {
			if res.Err == nil && !json.Valid(raw) {
				t.Errorf("%s raw document invalid", res.Name)
			}
			streamed = append(streamed, res.Name)
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
// ErrBadRequest before any work runs.
func TestResolveBadRequests(t *testing.T) {
	cases := []Request{
		{},
		{Experiments: []string{"nope"}},
		{Experiments: []string{"fig5", "bogus"}},
		{Experiments: []string{"fig5"}, Objective: "nonsense"},
		{Experiments: []string{"fig5"}, Configs: []string{"C99"}},
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
		OnResult: func(res engine.Result, raw json.RawMessage) {
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
