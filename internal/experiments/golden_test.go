package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"obm/internal/scenario"
)

// updateGolden regenerates the golden Render() captures under
// testdata/golden. Run `go test ./internal/experiments -run TestGolden
// -update-golden` after an intentional output change.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden experiment outputs")

// registryRow is one row of the registry table: an experiment and the
// request it runs under. Every All() entry is a row at the quick budget
// and seed 1, named by its ID; the extra rows add requests whose jobs
// form larger batches.
type registryRow struct {
	name string
	r    Runner
	o    Options
}

// extra reports whether the row is one of the extra requests rather
// than an All() entry at the quick budget.
func (row registryRow) extra() bool { return row.name != row.r.ID() }

func registryRows(t *testing.T) []registryRow {
	t.Helper()
	var rows []registryRow
	for _, r := range All() {
		rows = append(rows, registryRow{r.ID(), r, quickOpts()})
	}
	tailExp, err := Get("tail")
	if err != nil {
		t.Fatal(err)
	}
	validateExp, err := Get("validate")
	if err != nil {
		t.Fatal(err)
	}
	// Full-budget tail's mappers' replicas form one flat multi-replica
	// batch; validate on three configs fans three jobs out (its quick
	// default is C1 alone, one job).
	return append(rows,
		registryRow{"tail-full", tailExp, Options{Seed: 1}},
		registryRow{"validate-3cfg", validateExp, Options{Quick: true, Seed: 1, Configs: []string{"C1", "C4", "C7"}}})
}

// noArtifactRows are the rows whose runs compute no mapper artifact,
// so a rerun from disk has nothing to read.
var noArtifactRows = map[string]bool{"dynamic": true, "dynstream": true, "loadsweep": true, "fig3": true, "table3": true}

// registryRun is a row run up to four times under its request. cold
// runs at GOMAXPROCS 1 on an empty artifact store, cold4 at GOMAXPROCS 4
// on another empty store backed by a fresh disk tier (so the fanned-out
// jobs also race to compute the shared mapper artifacts), warm reruns
// on the store cold4 left, and disk reruns on a fresh store over the
// same directory, as a second process sharing -cachedir would (rows in
// noArtifactRows skip it).
type registryRun struct {
	cold, cold4, warm, disk Result
	err                     error
	// coldComputed, warmComputed and diskComputed count the artifacts
	// the first cold run, the warm rerun and the disk rerun computed;
	// diskHits counts the artifacts the disk rerun read from the disk
	// tier; warmInputs counts the inputs (problems, bounds, random
	// baselines) the warm rerun memoized.
	coldComputed, warmComputed, diskComputed, diskHits uint64
	warmInputs                                         int
	// readers are the subtests that have checked this run.
	readers map[string]bool
}

// registryRuns caches each row's run by row name, so the tests below
// check their properties on the same runs and a filtered `go test -run`
// runs only the rows it selects.
var registryRuns = map[string]*registryRun{}

// runRow returns the row's run, running the row on first request. A
// subtest that already checked the cached run (a later -count
// iteration) gets a fresh one.
func runRow(t *testing.T, row registryRow) *registryRun {
	t.Helper()
	if run := registryRuns[row.name]; run != nil && !run.readers[t.Name()] {
		run.readers[t.Name()] = true
		return run
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer scenario.ResetShared()
	run := &registryRun{readers: map[string]bool{t.Name(): true}}
	ctx := context.Background()
	runtime.GOMAXPROCS(1)
	scenario.ResetShared()
	registryRuns[row.name] = run
	if run.cold, run.err = row.r.Run(ctx, row.o); run.err != nil {
		return run
	}
	run.coldComputed = scenario.Shared().StoreStats().Computed
	runtime.GOMAXPROCS(4)
	dir := t.TempDir()
	var c *scenario.Cache
	if c, run.err = scenario.ConfigureShared(dir, 0); run.err != nil {
		return run
	}
	if run.cold4, run.err = row.r.Run(ctx, row.o); run.err != nil {
		return run
	}
	before, inputs := c.StoreStats().Computed, c.Inputs()
	if run.warm, run.err = row.r.Run(ctx, row.o); run.err != nil {
		return run
	}
	run.warmComputed = c.StoreStats().Computed - before
	run.warmInputs = c.Inputs() - inputs
	if noArtifactRows[row.name] {
		return run
	}
	if c, run.err = scenario.ConfigureShared(dir, 0); run.err != nil {
		return run
	}
	run.disk, run.err = row.r.Run(ctx, row.o)
	st := c.StoreStats()
	run.diskComputed, run.diskHits = st.Computed, st.DiskHits
	return run
}

// forEachRun runs check as a subtest per registry row, failing the row
// at once if any of its runs failed. quickOnly skips the extra rows.
func forEachRun(t *testing.T, quickOnly bool, check func(t *testing.T, row registryRow, run *registryRun)) {
	if testing.Short() {
		t.Skip("runs every experiment three times; skip under -short")
	}
	for _, row := range registryRows(t) {
		if quickOnly && row.extra() {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			run := runRow(t, row)
			if run.err != nil {
				t.Fatalf("%s: %v", row.name, run.err)
			}
			check(t, row, run)
		})
	}
}

// TestGoldenRenders pins every experiment's human-readable output: the
// quick-mode seed-1 Render() string must stay byte-identical across
// refactors of the rendering and scenario layers.
func TestGoldenRenders(t *testing.T) {
	forEachRun(t, true, func(t *testing.T, row registryRow, run *registryRun) {
		got := run.cold.Render()
		path := filepath.Join("testdata", "golden", row.name+".golden")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden capture (run with -update-golden): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s Render() drifted from golden capture.\n--- got ---\n%s\n--- want ---\n%s\ndiff at byte %d",
				row.name, got, want, firstDiff(got, string(want)))
		}
	})
}

// TestAllExperimentsRunQuick sanity-checks that every experiment's
// quick run renders, exports CSV and has a title.
func TestAllExperimentsRunQuick(t *testing.T) {
	forEachRun(t, true, func(t *testing.T, row registryRow, run *registryRun) {
		if out := run.cold.Render(); len(out) < 40 {
			t.Errorf("rendered suspiciously little output: %q", out)
		}
		if csv := run.cold.CSV(); !strings.Contains(csv, ",") && !strings.Contains(csv, "\n") {
			t.Error("CSV output empty")
		}
		if row.r.Title() == "" {
			t.Error("empty title")
		}
	})
}

// TestEveryExperimentJSONValid checks JSON() emits a parseable document
// (or document array) tagged with the schema.
func TestEveryExperimentJSONValid(t *testing.T) {
	forEachRun(t, true, func(t *testing.T, row registryRow, run *registryRun) {
		raw, err := run.cold.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(raw) {
			t.Fatalf("invalid JSON: %s", raw)
		}
		if !strings.Contains(string(raw), SchemaVersion) {
			t.Errorf("missing schema tag: %s", raw[:min(len(raw), 120)])
		}
	})
}

// TestSimFanOutIndependentOfCores checks every experiment's output is a
// function of its request alone: one core and four cores render and
// encode the same bytes.
func TestSimFanOutIndependentOfCores(t *testing.T) {
	forEachRun(t, false, func(t *testing.T, row registryRow, run *registryRun) {
		sameBytes(t, "1 and 4 cores", run.cold, run.cold4)
	})
}

// TestWarmRerun checks a rerun on a warm store computes no artifact,
// builds no input (every problem, lower bound and random baseline is a
// memo hit), and renders and encodes the same bytes as the cold run. ablation and
// scaling report work counts, not wall time, so they map through the
// store like every other runner; their cold counts are pinned too.
func TestWarmRerun(t *testing.T) {
	// ablation: 12 variants x 8 configurations; scaling: Global and SSS
	// on 3 quick mesh sizes.
	wantCold := map[string]uint64{"ablation": 96, "scaling": 6}
	forEachRun(t, false, func(t *testing.T, row registryRow, run *registryRun) {
		if want, ok := wantCold[row.name]; ok && run.coldComputed != want {
			t.Errorf("cold run computed %d artifacts, want %d", run.coldComputed, want)
		}
		if run.warmComputed != 0 {
			t.Errorf("warm rerun computed %d artifacts, want 0", run.warmComputed)
		}
		if run.warmInputs != 0 {
			t.Errorf("warm rerun built %d inputs, want 0", run.warmInputs)
		}
		sameBytes(t, "cold and warm runs", run.cold4, run.warm)
	})
}

// TestDiskRerun checks a rerun on a fresh store over the disk tier the
// cold run filled — a second process sharing -cachedir — computes no
// artifact, reads each one the cold run computed from disk, and renders
// and encodes the same bytes as the cold run. Rows that compute no
// artifact must really compute none.
func TestDiskRerun(t *testing.T) {
	forEachRun(t, false, func(t *testing.T, row registryRow, run *registryRun) {
		if noArtifactRows[row.name] {
			if run.coldComputed != 0 {
				t.Errorf("cold run computed %d artifacts; drop the row from noArtifactRows", run.coldComputed)
			}
			return
		}
		if run.diskComputed != 0 {
			t.Errorf("disk rerun computed %d artifacts, want 0", run.diskComputed)
		}
		if run.diskHits != run.coldComputed {
			t.Errorf("disk rerun read %d artifacts from disk, want the %d the cold run computed", run.diskHits, run.coldComputed)
		}
		sameBytes(t, "cold and disk runs", run.cold4, run.disk)
	})
}

// sameBytes fails t unless a and b render and encode identically.
func sameBytes(t *testing.T, what string, a, b Result) {
	t.Helper()
	if ra, rb := a.Render(), b.Render(); ra != rb {
		t.Errorf("Render() differs between %s, first at byte %d", what, firstDiff(ra, rb))
	}
	ja, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("JSON() differs between %s, first at byte %d", what, firstDiff(string(ja), string(jb)))
	}
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
