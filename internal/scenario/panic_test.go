package scenario

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"obm/internal/core"
	"obm/internal/mapping"
)

// faulty is a build that panics on its first call (after releasing
// gate so the test can line up concurrent waiters on the same flight)
// and succeeds on every later call.
type faulty struct {
	gate  chan struct{} // closed when the build has started and waiters may join
	boom  chan struct{} // the build panics when this closes
	calls atomic.Int32
}

func (f *faulty) build() {
	if f.calls.Add(1) == 1 {
		close(f.gate)
		<-f.boom
		panic("build exploded mid-computation")
	}
}

// faultyMapper is a faulty mapper that behaves like Global once it
// stops panicking. Its fingerprint is fixed, so the retry after the
// panic targets the same cache key.
type faultyMapper struct{ *faulty }

func (faultyMapper) Name() string        { return "Faulty" }
func (faultyMapper) Fingerprint() string { return "Faulty/v1" }

func (f faultyMapper) Map(ctx context.Context, p *core.Problem) (core.Mapping, error) {
	f.build()
	return mapping.Global{}.Map(ctx, p)
}

// TestPanickingMapperCannotDeadlockWaiters is the regression test for
// the singleflight panic safety that the artifact store and the input
// memo share: a build that panics while concurrent callers wait on its
// flight must (1) propagate the panic on the owning goroutine, (2) fail
// every waiter with an error naming the panic instead of blocking them
// forever or re-panicking on them, and (3) evict the slot so a retry
// on the same key builds fresh and succeeds. Input builds stay out of
// the store's accounting throughout.
func TestPanickingMapperCannotDeadlockWaiters(t *testing.T) {
	ctx := context.Background()
	p := testProblem(t, "C1")
	for _, tc := range []struct {
		name    string
		get     func(c *Cache, f *faulty) error
		entries func(c *Cache) int
		// misses is the store's computed count after the panic and
		// the retry.
		misses uint64
	}{
		{
			name: "mapper",
			get: func(c *Cache, f *faulty) error {
				mp, _, err := c.MapEval(ctx, p, faultyMapper{f})
				if err == nil {
					err = mp.Validate(p.N())
				}
				return err
			},
			entries: (*Cache).Len,
			misses:  2,
		},
		{
			name: "input",
			get: func(c *Cache, f *faulty) error {
				_, err := c.Problem("faulty", func() (*core.Problem, error) {
					f.build()
					return p, nil
				})
				return err
			},
			entries: (*Cache).Inputs,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache()
			f := &faulty{gate: make(chan struct{}), boom: make(chan struct{})}

			panicked := make(chan any, 1)
			go func() {
				defer func() { panicked <- recover() }()
				tc.get(c, f)
			}()
			<-f.gate // the flight is building; joiners from here on wait on it

			const waiters = 4
			var wg sync.WaitGroup
			errs := make([]error, waiters)
			for i := 0; i < waiters; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = tc.get(c, f)
				}(i)
			}
			// Let the waiters reach the shared flight, then blow it up.
			waitForLen := time.Now().Add(2 * time.Second)
			for tc.entries(c) != 1 && time.Now().Before(waitForLen) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(10 * time.Millisecond)
			close(f.boom)

			// The owner must re-panic (panic policy: programmer error
			// stays loud) and the waiters must all unwind promptly.
			select {
			case r := <-panicked:
				if r == nil {
					t.Error("owning goroutine did not re-panic")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("owning goroutine hung after the panic")
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("waiters deadlocked on the panicked flight")
			}
			for i, err := range errs {
				if err == nil {
					t.Fatalf("waiter %d got a result from a panicked build", i)
				}
				if !strings.Contains(err.Error(), "panicked: build exploded") {
					t.Errorf("waiter %d error should name the panic: %v", i, err)
				}
			}

			// The slot must be reclaimed: the same key retries and
			// succeeds.
			if n := tc.entries(c); n != 0 {
				t.Fatalf("panicked flight left %d entries; slot not reclaimed", n)
			}
			if err := tc.get(c, f); err != nil {
				t.Fatalf("retry after panic failed: %v", err)
			}
			if n := f.calls.Load(); n != 2 {
				t.Errorf("%d builds, want 2 (panicked attempt + retry)", n)
			}
			hits, misses := hitsMisses(c)
			if misses != tc.misses || hits != 0 {
				t.Errorf("store hits/misses = %d/%d, want 0/%d", hits, misses, tc.misses)
			}
		})
	}
}

// TestStatsCoherentUnderConcurrency checks the Stats pair can never
// disagree with itself: while many goroutines hammer one key, every
// snapshot must satisfy hits+misses <= served requests so far, and the
// final totals must balance exactly.
func TestStatsCoherentUnderConcurrency(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	p := testProblem(t, "C1")
	m := mapping.Global{}
	const callers = 16
	var served atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapErr atomic.Value
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				h, ms := hitsMisses(c)
				if h+ms > served.Load()+callers {
					snapErr.Store("hits+misses ran ahead of requests")
					return
				}
			}
		}
	}()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.MapEval(ctx, p, m); err == nil {
				served.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if e := snapErr.Load(); e != nil {
		t.Fatal(e)
	}
	h, ms := hitsMisses(c)
	if h+ms != callers || ms != 1 {
		t.Errorf("final stats %d hits + %d misses, want %d total with 1 miss", h, ms, callers)
	}
}
