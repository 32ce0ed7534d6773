package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"obm/internal/obs"
)

// TestMetricsFlagPrintsAndEmbeds checks the -metrics contract: the
// printed computed/served summary, the printed table, and the
// obsim.metrics/v1 block in the -json envelope all come from one
// snapshot, so the cache counters in the JSON must equal the printed
// numbers exactly.
func TestMetricsFlagPrintsAndEmbeds(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "table1,fig5", "-quick", "-metrics", "-json", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "metrics (obsim.metrics/v1):") {
		t.Fatalf("metrics table missing from stdout: %q", stdout.String())
	}
	var printedComputed, printedMem, printedDisk uint64
	found := false
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.Contains(line, "mapper artifact store:") {
			if _, err := fmt.Sscanf(strings.TrimSpace(line),
				"mapper artifact store: %d computed, %d memory hits, %d disk hits", &printedComputed, &printedMem, &printedDisk); err != nil {
				t.Fatalf("unparsable summary line %q: %v", line, err)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("computed/served summary missing from -metrics output")
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema      string            `json:"schema"`
		Experiments []json.RawMessage `json:"experiments"`
		Metrics     *struct {
			Schema string `json:"schema"`
			obs.Snapshot
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("envelope is not valid JSON: %v", err)
	}
	if doc.Schema != "obmsim.run/v1" || len(doc.Experiments) != 2 {
		t.Fatalf("envelope schema/experiments wrong: %s, %d entries", doc.Schema, len(doc.Experiments))
	}
	if doc.Metrics == nil {
		t.Fatal("metrics block missing from envelope")
	}
	if doc.Metrics.Schema != "obsim.metrics/v1" {
		t.Errorf("metrics schema = %q, want obsim.metrics/v1", doc.Metrics.Schema)
	}
	computed, ok := doc.Metrics.Counter("artifact.store.computed")
	if !ok || computed != printedComputed {
		t.Errorf("JSON computed = %d,%v; printed summary says %d computed", computed, ok, printedComputed)
	}
	hits, ok := doc.Metrics.Counter("artifact.mem.hits")
	if !ok || hits != printedMem {
		t.Errorf("JSON memory hits = %d,%v; printed summary says %d", hits, ok, printedMem)
	}
	if diskHits, ok := doc.Metrics.Counter("artifact.disk.hits"); !ok || diskHits != printedDisk {
		t.Errorf("JSON disk hits = %d,%v; printed summary says %d", diskHits, ok, printedDisk)
	}
	if _, ok := doc.Metrics.Counter("noc.flits.injected"); !ok {
		t.Error("NoC counters missing from metrics block")
	}
	if h, ok := doc.Metrics.Histogram("engine.job.table1.seconds"); !ok || h.Count < 1 {
		t.Errorf("per-experiment duration histogram missing or empty: %+v,%v", h, ok)
	}
}

// TestNoMetricsFlagOmitsBlock checks the envelope stays byte-compatible
// with pre-metrics consumers when -metrics is off: no metrics key at
// all.
func TestNoMetricsFlagOmitsBlock(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.json")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "fig5", "-quick", "-json", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if _, present := doc["metrics"]; present {
		t.Error("metrics block present without -metrics")
	}
	if strings.Contains(stdout.String(), "obsim.metrics") {
		t.Error("metrics table printed without -metrics")
	}
}

// TestProfileFlags smoke-tests -cpuprofile and -memprofile: the run
// succeeds and both profiles come out non-empty.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig5", "-quick", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
	// A bad profile path is a usage error, reported before any work.
	stderr.Reset()
	if code := run(context.Background(), []string{"-exp", "fig5", "-cpuprofile", filepath.Join(dir, "no/such/dir/x")}, &stdout, &stderr); code != 2 {
		t.Errorf("bad -cpuprofile path: exit %d, want 2 (%s)", code, stderr.String())
	}
}

// TestPprofFlag checks -pprof binds, reports its address, and rejects
// an unusable one.
func TestPprofFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig5", "-quick", "-pprof", "127.0.0.1:0"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "pprof listening on http://127.0.0.1:") {
		t.Errorf("pprof address not reported: %q", stderr.String())
	}
	stderr.Reset()
	if code := run(context.Background(), []string{"-exp", "fig5", "-pprof", "256.0.0.1:bad"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad -pprof address: exit %d, want 2 (%s)", code, stderr.String())
	}
}

// TestMetricNamesDocumented keeps DESIGN §4.3's metric table honest in
// both directions: every name a quick run of table1, dynstream, pareto
// and validate (on C1) emits must match one of the table's rows, and
// every row must match a name the run recorded into (a nonzero counter
// or gauge, or a histogram with observations). The run covers every
// subsystem but the job service: service.* is recorded only by the
// daemon's Manager, which the CLI does not run.
func TestMetricNamesDocumented(t *testing.T) {
	rows := designMetricRows(t)
	out := filepath.Join(t.TempDir(), "run.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "table1,dynstream,pareto,validate", "-configs", "C1", "-quick", "-metrics", "-json", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics obs.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	recorded := map[string]bool{} // every emitted name: was anything recorded?
	for _, c := range doc.Metrics.Counters {
		recorded[c.Name] = c.Value != 0
	}
	for _, g := range doc.Metrics.Gauges {
		recorded[g.Name] = g.Value != 0
	}
	for _, h := range doc.Metrics.Histograms {
		recorded[h.Name] = h.Count != 0
	}
	if len(recorded) == 0 {
		t.Fatal("run emitted no metrics")
	}
	for name := range recorded {
		documented := false
		for _, re := range rows {
			if re.MatchString(name) {
				documented = true
				break
			}
		}
		if !documented {
			t.Errorf("metric %q matches no row of DESIGN.md §4.3", name)
		}
	}
	for _, re := range rows {
		if strings.HasPrefix(re.String(), `^service\.`) {
			continue
		}
		reached := false
		for name, ok := range recorded {
			if ok && re.MatchString(name) {
				reached = true
				break
			}
		}
		if !reached {
			t.Errorf("DESIGN.md §4.3 row %s matches no metric the run recorded", re)
		}
	}
}

// designMetricRows parses the first-column patterns of DESIGN.md
// §4.3's metric table into anchored regexps: `<x>` matches one or more
// characters and `*` any suffix.
func designMetricRows(t *testing.T) []*regexp.Regexp {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "### 4.3 ")
	if start < 0 {
		t.Fatal("DESIGN.md has no §4.3")
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n### "); end >= 0 {
		section = section[:end]
	}
	cell := regexp.MustCompile("^\\| `([^`]+)` \\|")
	placeholder := regexp.MustCompile(`<[^>]+>`)
	var rows []*regexp.Regexp
	for _, line := range strings.Split(section, "\n") {
		m := cell.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var b strings.Builder
		for i, lit := range placeholder.Split(m[1], -1) {
			if i > 0 {
				b.WriteString(".+")
			}
			b.WriteString(strings.ReplaceAll(regexp.QuoteMeta(lit), `\*`, ".*"))
		}
		rows = append(rows, regexp.MustCompile("^"+b.String()+"$"))
	}
	if len(rows) == 0 {
		t.Fatal("no metric rows found in DESIGN.md §4.3")
	}
	return rows
}
