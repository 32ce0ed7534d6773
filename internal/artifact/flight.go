package artifact

import (
	"context"
	"fmt"
	"sync"
)

// Flight is the memory tier's singleflight, and the one singleflight
// of the repository: the artifact Store keeps its artifacts in one,
// and scenario's input memo keeps problems, bounds and baselines in
// another. The first caller for a key builds; every caller arriving
// while that build runs waits for it instead of starting another.
// Its rules:
//
//   - a waiter leaves when its own ctx ends, with an error wrapping
//     ctx's;
//   - a build that fails or panics is forgotten, so the next call for
//     its key builds again (waiters on the failed build share its
//     error); a successful build is kept for the Flight's lifetime;
//   - a panicking build re-panics on the caller that ran it, and every
//     waiter gets an error naming the panic, so no bystander hangs or
//     crashes on it.
//
// The zero value is ready to use. Values are shared between callers:
// hand out copies where they are mutable.
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

// call is one build: done is closed when val and err are final.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns the value built under key, running build on this
// goroutine if no build for key has succeeded or is in flight, and
// waiting for the one in flight otherwise.
func (f *Flight[V]) Do(ctx context.Context, key string, build func() (V, error)) (V, error) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err
		case <-ctx.Done():
			var zero V
			return zero, fmt.Errorf("artifact: waiting for in-flight %s: %w", key, ctx.Err())
		}
	}
	if f.calls == nil {
		f.calls = make(map[string]*call[V])
	}
	c := &call[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	// The deferred completion is what makes the flight panic-safe:
	// without it a panicking build would leave done open forever,
	// deadlocking every waiter and leaking the key.
	completed := false
	defer func() {
		if completed {
			return
		}
		r := recover()
		c.err = fmt.Errorf("artifact: building %s panicked: %v", key, r)
		f.finish(key, c)
		if r != nil {
			panic(r)
		}
	}()
	c.val, c.err = build()
	completed = true
	f.finish(key, c)
	return c.val, c.err
}

// finish forgets a failed build and releases its waiters.
func (f *Flight[V]) finish(key string, c *call[V]) {
	if c.err != nil {
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
	}
	close(c.done)
}

// Len returns the number of keys built or in flight.
func (f *Flight[V]) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}
