package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"obm/internal/artifact"
	"obm/internal/scenario"
)

// runEnvelope is the envelope subset the cache tests read back.
type runEnvelope struct {
	Schema  string `json:"schema"`
	Options struct {
		Dir  string `json:"cachedir"`
		Size int64  `json:"cachesize"`
	} `json:"options"`
	Cache struct {
		Dir       string `json:"dir"`
		SizeBytes int64  `json:"size_bytes"`
		Schema    int    `json:"artifact_schema"`
	} `json:"cache"`
	Experiments json.RawMessage `json:"experiments"`
}

// TestCacheDirColdWarm is the two-tier acceptance check at the CLI
// layer: a first run with -cachedir computes its artifacts and leaves
// them on disk; a second run over the same directory (fresh memory
// tier — ConfigureShared installs one per run) computes nothing, serves
// everything from disk, and produces a byte-identical envelope. The
// per-run traffic stats live outside the envelope (progress line, the
// metrics block, the daemon's job status), so they are read from the
// shared store here.
func TestCacheDirColdWarm(t *testing.T) {
	cache := t.TempDir()
	out := t.TempDir()
	t.Cleanup(func() { scenario.ResetShared() })
	do := func(jsonPath string) (runEnvelope, []byte, artifact.Stats) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		code := run(context.Background(),
			[]string{"-exp", "table1,fig9", "-quick", "-configs", "C1,C2", "-cachedir", cache, "-json", jsonPath},
			&stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		var env runEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("envelope: %v", err)
		}
		// ConfigureShared installs a fresh memory tier per run, so the
		// shared store's counters are this run's traffic exactly.
		return env, data, scenario.Shared().StoreStats()
	}

	cold, coldRaw, coldStats := do(filepath.Join(out, "cold.json"))
	if cold.Cache.Dir != cache || cold.Cache.SizeBytes != 256<<20 || cold.Options.Dir != cache {
		t.Errorf("disk tier not recorded in envelope: %+v", cold.Cache)
	}
	if cold.Cache.Schema != artifact.SchemaVersion {
		t.Errorf("artifact schema = %d, want %d", cold.Cache.Schema, artifact.SchemaVersion)
	}
	if coldStats.Computed == 0 || coldStats.DiskHits != 0 {
		t.Fatalf("cold run stats = %+v, want computes and no disk hits", coldStats)
	}
	files, err := filepath.Glob(filepath.Join(cache, "*.obma"))
	if err != nil || uint64(len(files)) != coldStats.Computed {
		t.Errorf("%d artifact files on disk for %d computes (%v)", len(files), coldStats.Computed, err)
	}

	warm, warmRaw, warmStats := do(filepath.Join(out, "warm.json"))
	if warmStats.Computed != 0 {
		t.Errorf("warm run computed %d artifacts, want 0", warmStats.Computed)
	}
	if warmStats.DiskHits != coldStats.Computed {
		t.Errorf("warm run disk hits = %d, want %d (one per cold compute)", warmStats.DiskHits, coldStats.Computed)
	}
	if !bytes.Equal(cold.Experiments, warm.Experiments) {
		t.Error("warm results differ from cold: disk tier is not byte-transparent")
	}
	// The envelope carries no per-run traffic, so the whole document —
	// not just the results — must be byte-identical across cold and
	// warm. This is what lets a daemon job and a CLI run agree too.
	if !bytes.Equal(coldRaw, warmRaw) {
		t.Error("cold and warm envelopes differ: envelope is not a pure function of the request")
	}
}

// TestCacheDirUnusableFailsFast: an unusable -cachedir is a usage
// error before any work, never a silent fall-back to memory-only.
func TestCacheDirUnusableFailsFast(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run(context.Background(),
		[]string{"-exp", "fig5", "-quick", "-cachedir", filepath.Join(blocker, "cache")}, &stdout, &stderr)
	if code != 2 {
		t.Errorf("exit %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "obmsim:") {
		t.Errorf("error not reported: %q", stderr.String())
	}
}
