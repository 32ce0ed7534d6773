package experiments

import (
	"context"
	"errors"
	"testing"
)

// TestSimFanOutCancelled checks a context cancelled before Run stops
// every registered experiment: it fails with an error that wraps
// context.Canceled, or it returns exactly the result an uncancelled
// run renders (the job service checks the context before each
// experiment, so a runner that never looks at it is still stopped).
func TestSimFanOutCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range All() {
		res, err := r.Run(ctx, quickOpts())
		if errors.Is(err, context.Canceled) {
			continue
		}
		if err != nil {
			t.Errorf("%s: err = %v, want context.Canceled", r.ID(), err)
			continue
		}
		want, err := r.Run(context.Background(), quickOpts())
		if err != nil {
			t.Fatalf("%s: uncancelled run: %v", r.ID(), err)
		}
		if got := res.Render(); got != want.Render() {
			t.Errorf("%s: cancelled run returned a result that differs from an uncancelled one, first at byte %d",
				r.ID(), firstDiff(got, want.Render()))
		}
	}
}
