package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden regenerates the golden Render() captures under
// testdata/golden. Run `go test ./internal/experiments -run TestGolden
// -update-golden` after an intentional output change.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden experiment outputs")

// TestGoldenRenders pins every experiment's human-readable output: the
// quick-mode seed-1 Render() string must stay byte-identical across
// refactors of the rendering and scenario layers. The same captures also gate the artifact cache: a second run
// served from the cache must render the same bytes as the cold run.
func TestGoldenRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skip under -short")
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID(), func(t *testing.T) {
			res, err := r.Run(context.Background(), quickOpts())
			if err != nil {
				t.Fatalf("%s: %v", r.ID(), err)
			}
			got := res.Render()
			path := filepath.Join("testdata", "golden", r.ID()+".golden")
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
					r.ID(), got, want, firstDiff(got, string(want)))
			}
		})
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
