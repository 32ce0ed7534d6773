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

// faultyMapper panics on its first Map call (after releasing gate so
// the test can line up concurrent waiters on the same flight) and
// behaves like Global on every later call. Its fingerprint is fixed, so
// the retry after the panic targets the same cache key.
type faultyMapper struct {
	gate  chan struct{} // closed when Map has started and waiters may join
	boom  chan struct{} // Map panics when this closes
	calls *atomic.Int32
}

func (f *faultyMapper) Name() string        { return "Faulty" }
func (f *faultyMapper) Fingerprint() string { return "Faulty/v1" }

func (f *faultyMapper) Map(ctx context.Context, p *core.Problem) (core.Mapping, error) {
	if f.calls.Add(1) == 1 {
		close(f.gate)
		<-f.boom
		panic("mapper exploded mid-computation")
	}
	return mapping.Global{}.Map(ctx, p)
}

// TestPanickingMapperCannotDeadlockWaiters is the regression test for
// the singleflight panic-safety fix: a mapper that panics while
// concurrent MapEval callers wait on its flight must (1) propagate the
// panic on the owning goroutine, (2) fail every waiter with an error
// naming the panic instead of blocking them forever, and (3) evict the
// slot so a retry on the same key computes fresh and succeeds.
func TestPanickingMapperCannotDeadlockWaiters(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	p := testProblem(t, "C1")
	m := &faultyMapper{gate: make(chan struct{}), boom: make(chan struct{}), calls: new(atomic.Int32)}

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.MapEval(ctx, p, m)
	}()
	<-m.gate // the flight is computing; joiners from here on wait on it

	const waiters = 4
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.MapEval(ctx, p, m)
		}(i)
	}
	// Let the waiters reach the shared flight, then blow it up.
	waitForLen := time.Now().Add(2 * time.Second)
	for c.Len() != 1 && time.Now().Before(waitForLen) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(m.boom)

	// The owner must re-panic (panic policy: programmer error stays
	// loud) and the waiters must all unwind promptly.
	select {
	case r := <-panicked:
		if r == nil {
			t.Error("owning goroutine did not re-panic")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("owning goroutine hung after mapper panic")
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
			t.Fatalf("waiter %d got a result from a panicked computation", i)
		}
		if !strings.Contains(err.Error(), "panic") {
			t.Errorf("waiter %d error should name the panic: %v", i, err)
		}
	}

	// The slot must be reclaimed: the same key retries and succeeds.
	if c.Len() != 0 {
		t.Fatalf("panicked flight left %d entries; slot not reclaimed", c.Len())
	}
	mp, _, err := c.MapEval(ctx, p, m)
	if err != nil {
		t.Fatalf("retry after panic failed: %v", err)
	}
	if err := mp.Validate(p.N()); err != nil {
		t.Errorf("retry returned invalid mapping: %v", err)
	}
	hits, misses := hitsMisses(c)
	if misses != 2 {
		t.Errorf("misses = %d, want 2 (panicked attempt + retry)", misses)
	}
	if hits != 0 {
		t.Errorf("hits = %d, want 0 (no successful artifact was shared)", hits)
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
