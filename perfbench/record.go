package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"obm/internal/service"
)

// hostStamp is what a record was measured on. Records whose shapes
// differ measure different machines and are never compared.
type hostStamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit when the checkout is a git repository.
	Commit string `json:"commit,omitempty"`
	// Source is the SHA-256 over every Go source and module file, which
	// names the code measured even where there is no git metadata.
	Source string `json:"source_sha256"`
}

func stampHost(root string) (hostStamp, error) {
	src, err := sourceDigest(root)
	if err != nil {
		return hostStamp{}, err
	}
	h := hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		Source:     src,
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h, nil
}

// shape is the part of the stamp two compared records must share.
func (h hostStamp) shape() string {
	return fmt.Sprintf("%s/%s NumCPU=%d GOMAXPROCS=%d %s", h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS, h.GoVersion)
}

// sourceDigest hashes the path and bytes of every .go, go.mod and
// go.sum file under root, skipping dot-directories such as .git and
// the build directory.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// metricOut is one metric as printed and recorded.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as kept in the build directory.
type record struct {
	Host      hostStamp            `json:"host"`
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Seconds   int                  `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Passes    int                  `json:"passes"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Checks    []string             `json:"failed_checks,omitempty"`
	Metrics   map[string]metricOut `json:"metrics"`
	// Untraced holds each untraced pass's raw figures.
	Untraced []passRecord `json:"passes_untraced"`
}

// passRecord is one pass's raw figures.
type passRecord struct {
	Seed    uint64    `json:"seed"`
	WallS   float64   `json:"wall_s"`
	SetupMS float64   `json:"setup_ms"`
	RSSMiB  float64   `json:"peak_rss_mib"`
	Slow    float64   `json:"host_slowdown"`
	JobMS   []float64 `json:"job_ms"` // in job order; -1 for a failed job
}

func passRecords(ps []pass) []passRecord {
	out := make([]passRecord, len(ps))
	for i, p := range ps {
		r := passRecord{Seed: p.seed, WallS: p.wall.Seconds(), SetupMS: ms(p.setup), RSSMiB: p.rss, Slow: p.slowdown}
		for _, o := range p.jobs {
			if o.fail != failNone {
				r.JobMS = append(r.JobMS, -1)
			} else {
				r.JobMS = append(r.JobMS, ms(o.latency))
			}
		}
		out[i] = r
	}
	return out
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readRecord(path string) (record, error) {
	var r record
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// errShape refuses a comparison across host shapes.
var errShape = errors.New("records come from different host shapes")

// compareRecords prints each metric of two records of the same
// workload side by side, and refuses records from different host
// shapes or of different workloads or modes.
func compareRecords(w io.Writer, oldPath, newPath string) error {
	a, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	b, err := readRecord(newPath)
	if err != nil {
		return err
	}
	if a.Host.shape() != b.Host.shape() {
		return fmt.Errorf("%w: %s vs %s", errShape, a.Host.shape(), b.Host.shape())
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("records measure different runs: %s trace=%v vs %s trace=%v", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s on %s\n", a.Workload, a.Host.shape())
	for _, n := range names {
		o, ok := b.Metrics[n]
		if !ok {
			fmt.Fprintf(w, "  %-40s %14.4f %14s\n", n, a.Metrics[n].Value, "missing")
			continue
		}
		fmt.Fprintf(w, "  %-40s %14.4f %14.4f %+8.2f%% %s\n", n, a.Metrics[n].Value, o.Value, 100*ratio(o.Value-a.Metrics[n].Value, a.Metrics[n].Value), o.Unit)
	}
	return nil
}

// pins maps a request to the SHA-256 of the envelope it produced, kept
// per seed in the build directory, so every later run of the same
// request in this checkout must reproduce it byte for byte.
type pins struct {
	path    string
	digests map[string]string
}

func loadPins(path string) (*pins, error) {
	p := &pins{path: path, digests: make(map[string]string)}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return p, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &p.digests); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// check pins digest for key on first sight and otherwise reports the
// earlier digest it contradicts.
func (p *pins) check(key, digest string) error {
	if prev, ok := p.digests[key]; ok && prev != digest {
		return fmt.Errorf("envelope of %s is %.12s, pinned %.12s", key, digest, prev)
	}
	p.digests[key] = digest
	return nil
}

func (p *pins) save() error { return writeJSONFile(p.path, p.digests) }

// requestKey names a request by its normalized JSON form.
func requestKey(r service.Request) string {
	data, _ := json.Marshal(r.Normalized()) // a Request always marshals
	return string(data)
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
