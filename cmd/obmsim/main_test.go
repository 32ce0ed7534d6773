package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, want := range []string{"table1", "fig9", "validate", "gap", "topology"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("list missing %s", want)
		}
	}
}

func TestRunFig5WithCSVAndSVG(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "out.csv")
	svg := filepath.Join(dir, "figs")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig5,fig3", "-quick", "-csv", csv, "-svgdir", svg}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "10.3375") {
		t.Error("fig5 numbers missing from output")
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "fig5") {
		t.Error("csv missing experiment header")
	}
	figs, err := filepath.Glob(filepath.Join(svg, "*.svg"))
	if err != nil || len(figs) == 0 {
		t.Errorf("no SVGs written: %v %v", figs, err)
	}
}

func TestRunWithConfigSubset(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig9", "-quick", "-configs", "C1,C2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "C1") || !strings.Contains(out, "C2") {
		t.Error("requested configs missing")
	}
	if strings.Contains(out, "C5") {
		t.Error("unrequested config present")
	}
}

func TestBadUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	ctx := context.Background()
	if code := run(ctx, nil, &stdout, &stderr); code == 0 {
		t.Error("missing -exp accepted")
	}
	if code := run(ctx, []string{"-exp", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown experiment accepted")
	}
	if code := run(ctx, []string{"-badflag"}, &stdout, &stderr); code == 0 {
		t.Error("bad flag accepted")
	}
	if code := run(ctx, []string{"-exp", "fig9", "-timeout", "banana"}, &stdout, &stderr); code != 2 {
		t.Errorf("malformed -timeout: exit %d, want 2", code)
	}
	// -workers is retired: every mapper runs sequentially.
	stderr.Reset()
	if code := run(ctx, []string{"-exp", "table1", "-workers", "1"}, &stdout, &stderr); code != 2 {
		t.Errorf("retired -workers: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -workers") {
		t.Errorf("retired -workers: stderr %q lacks the flag error", stderr.String())
	}
}

func TestUnknownConfigFailsFast(t *testing.T) {
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run(context.Background(), []string{"-exp", "fig9", "-configs", "C1,C99"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "C99") || !strings.Contains(stderr.String(), "valid") {
		t.Errorf("error should name the bad config and list valid ones: %s", stderr.String())
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("validation took %v; should fail before any work runs", elapsed)
	}
}

// TestTimeoutKeepsPartialResults runs two experiments under a budget
// only the first can meet: the cheap fig5 output must survive, the exit
// code must be non-zero, and stderr must note the interruption.
func TestTimeoutKeepsPartialResults(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// fig5 is analytic (milliseconds); fig11 in non-quick mode runs
	// flit-level simulations on four configs and cannot finish in 2s.
	code := run(context.Background(), []string{"-exp", "fig5,fig11", "-timeout", "2s"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("timeout run exited 0")
	}
	if !strings.Contains(stdout.String(), "10.3375") {
		t.Error("completed fig5 output missing from partial results")
	}
	if !strings.Contains(stderr.String(), "interrupted") || !strings.Contains(stderr.String(), "partial results") {
		t.Errorf("stderr missing partial-results note: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "1/2 experiments completed") {
		t.Errorf("stderr should count completed experiments: %s", stderr.String())
	}
}

// TestCancelStopsPromptlyWithoutLeaks cancels mid-experiment and checks
// both that run returns quickly and that no worker goroutines are left
// behind (counting check; the repo carries no leak-detection dep).
func TestCancelStopsPromptlyWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run(ctx, []string{"-exp", "fig11"}, &stdout, &stderr)
	elapsed := time.Since(start)
	if code == 0 {
		t.Error("cancelled run exited 0")
	}
	if elapsed > 3*time.Second {
		t.Errorf("cancel took %v to unwind; want prompt exit", elapsed)
	}
	// Workers should drain quickly after cancellation; poll briefly
	// before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after cancellation", before, runtime.NumGoroutine())
}

// TestExpCommaList runs an explicit comma-separated -exp list (with
// whitespace) and checks every named experiment appears, in order.
func TestExpCommaList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig5, table3", "-quick"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	i5 := strings.Index(out, "[fig5 in ")
	i3 := strings.Index(out, "[table3 in ")
	if i5 < 0 || i3 < 0 {
		t.Fatalf("comma list did not run both experiments: %q", out)
	}
	if i5 > i3 {
		t.Error("experiments should run in the order listed")
	}
	// A list with an unknown member fails fast before any work.
	stdout.Reset()
	stderr.Reset()
	if code := run(context.Background(), []string{"-exp", "fig5,nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown member of comma list: exit %d, want 2", code)
	}
}

// TestJSONOutput checks -json writes a combined document and -jsondir a
// per-experiment file, both valid JSON carrying the schema tags.
func TestJSONOutput(t *testing.T) {
	dir := t.TempDir()
	combined := filepath.Join(dir, "run.json")
	perExp := filepath.Join(dir, "json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(),
		[]string{"-exp", "fig5,table3", "-quick", "-json", combined, "-jsondir", perExp}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}

	data, err := os.ReadFile(combined)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema      string `json:"schema"`
		Experiments []struct {
			ID     string          `json:"id"`
			Title  string          `json:"title"`
			Result json.RawMessage `json:"result"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("combined output is not valid JSON: %v", err)
	}
	if doc.Schema != "obmsim.run/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if len(doc.Experiments) != 2 || doc.Experiments[0].ID != "fig5" || doc.Experiments[1].ID != "table3" {
		t.Fatalf("experiments = %+v", doc.Experiments)
	}
	for _, e := range doc.Experiments {
		var inner struct {
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(e.Result, &inner); err != nil {
			t.Fatalf("%s result invalid: %v", e.ID, err)
		}
		if e.Title == "" {
			t.Errorf("%s missing title", e.ID)
		}
		raw, err := os.ReadFile(filepath.Join(perExp, e.ID+".json"))
		if err != nil {
			t.Fatalf("per-experiment artifact: %v", err)
		}
		if !json.Valid(raw) {
			t.Errorf("%s.json is not valid JSON", e.ID)
		}
	}
}

// TestProgressFlag checks the stderr ticker emits events during a run.
func TestProgressFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "table1", "-quick", "-progress", "-configs", "C1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "progress:") {
		t.Errorf("no progress events on stderr: %q", stderr.String())
	}
	if !strings.Contains(stderr.String(), "mapper artifact store:") {
		t.Errorf("no store stats summary on stderr: %q", stderr.String())
	}
}
