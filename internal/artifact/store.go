package artifact

import (
	"context"
	"fmt"
	"sync"

	"obm/internal/obs"
)

// Memory-tier and whole-store metrics; process-wide like the disk
// tier's (in practice one shared store lives per process).
var (
	mMemHits  = obs.Default().Counter("artifact.mem.hits")
	mComputed = obs.Default().Counter("artifact.store.computed")
	mInflight = obs.Default().Gauge("artifact.store.inflight")
)

// Source says which tier served a Get.
type Source int

const (
	// SourceComputed: neither tier had it; the compute callback ran.
	SourceComputed Source = iota
	// SourceMemory: served by the in-process singleflight tier (which
	// includes joining a computation already in flight).
	SourceMemory
	// SourceDisk: served by the persistent disk tier.
	SourceDisk
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	default:
		return "computed"
	}
}

// Stats is one coherent snapshot of a store's request accounting.
// MemHits+DiskHits+Computed equals the successful Get traffic;
// Computed equals the number of compute callbacks started (failed or
// panicked ones included — their slots are evicted, not counted back).
type Stats struct {
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	Computed uint64 `json:"computed"`
	// Disk-tier occupancy and failure accounting; zero when no disk
	// tier is attached. DiskSchema counts stale-schema files discarded
	// after an encoding bump (expected, unlike DiskCorrupt).
	DiskEvictions uint64 `json:"disk_evictions,omitempty"`
	DiskCorrupt   uint64 `json:"disk_corrupt,omitempty"`
	DiskSchema    uint64 `json:"disk_schema_mismatch,omitempty"`
	DiskEntries   int    `json:"disk_entries,omitempty"`
	DiskBytes     int64  `json:"disk_bytes,omitempty"`
}

// entry is one memory-tier slot. The first requester computes (or
// loads from disk); done is closed when art/err are final, and
// everyone else waits on it (singleflight).
type entry struct {
	done chan struct{}
	art  Artifact
	err  error
}

// Store is the two-tier artifact store: a process-local singleflight
// memory tier, optionally backed by a persistent DiskTier. It is safe
// for concurrent use: simultaneous Gets for the same WorkUnit share
// one computation, distinct units proceed in parallel, and a disk hit
// is promoted into the memory tier so repeats stay in-process.
//
// Errors are never cached: a failed, cancelled, or panicking
// computation evicts its slot so a later request retries (waiters that
// joined the failed flight do share its error). Nothing failed is ever
// written to disk.
type Store struct {
	disk *DiskTier

	mu      sync.Mutex
	entries map[string]*entry
	stats   Stats // guarded by mu so snapshots are coherent pairs
}

// NewStore returns a store over the given disk tier; disk may be nil
// for a memory-only store (the pre-disk behaviour, and the default for
// tests and library callers that never opt into persistence).
func NewStore(disk *DiskTier) *Store {
	return &Store{disk: disk, entries: make(map[string]*entry)}
}

// Get returns the artifact for wu, serving it from the memory tier,
// then the disk tier, and only then running compute — at most once per
// distinct key however many goroutines ask concurrently. The returned
// artifact is an independent copy; callers may mutate it freely. The
// Source reports which tier answered, so callers can surface
// tier-accurate progress (scenario reports skipped stages for hits).
func (s *Store) Get(ctx context.Context, wu WorkUnit, compute func(context.Context) (Artifact, error)) (Artifact, Source, error) {
	key := wu.Key()
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return Artifact{}, SourceMemory, fmt.Errorf("artifact: waiting for in-flight %s: %w", wu.Mapper, ctx.Err())
		}
		if e.err != nil {
			return Artifact{}, SourceMemory, e.err
		}
		s.mu.Lock()
		s.stats.MemHits++
		s.mu.Unlock()
		mMemHits.Inc()
		return e.art.Clone(), SourceMemory, nil
	}
	e := &entry{done: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()
	if s.disk != nil {
		if art, ok := s.disk.Get(wu); ok {
			e.art = art
			close(e.done)
			s.mu.Lock()
			s.stats.DiskHits++
			s.mu.Unlock()
			return art.Clone(), SourceDisk, nil
		}
	}
	s.mu.Lock()
	s.stats.Computed++
	s.mu.Unlock()
	mComputed.Inc()
	mInflight.Add(1)
	return s.compute(ctx, key, e, wu, compute)
}

// compute runs the callback for the entry this caller owns and
// finalizes it exactly once, however the computation ends — success,
// error, or panic. The deferred completion is what makes the
// singleflight panic-safe: without it a panic in the callback would
// leave e.done forever open, deadlocking every waiter on the key and
// permanently leaking the slot. A panic is converted into an error the
// waiters can return, the slot is evicted so a later request retries,
// and then the panic is re-raised on the owning goroutine — the
// repository's panic policy (programmer error stays loud) is preserved
// while no bystander can hang on it.
func (s *Store) compute(ctx context.Context, key string, e *entry, wu WorkUnit, compute func(context.Context) (Artifact, error)) (Artifact, Source, error) {
	completed := false
	defer func() {
		mInflight.Add(-1)
		if completed {
			return
		}
		r := recover()
		e.err = fmt.Errorf("artifact: computing %s panicked: %v", wu.Mapper, r)
		s.mu.Lock()
		delete(s.entries, key)
		s.mu.Unlock()
		close(e.done)
		if r != nil {
			panic(r)
		}
	}()
	art, err := compute(ctx)
	if err != nil {
		e.err = err
		s.mu.Lock()
		delete(s.entries, key)
		s.mu.Unlock()
		close(e.done)
		completed = true
		return Artifact{}, SourceComputed, err
	}
	e.art = art
	close(e.done)
	completed = true
	if s.disk != nil {
		// A failed cache write must not fail the computation that
		// produced a perfectly good artifact; it is counted
		// (artifact.disk.write_errors) and costs a later recompute.
		_ = s.disk.Put(wu, art)
	}
	return art.Clone(), SourceComputed, nil
}

// Stats returns one coherent snapshot of the request accounting, with
// the disk tier's occupancy and failure counts folded in.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	if s.disk != nil {
		st.DiskEvictions, st.DiskCorrupt, st.DiskSchema = s.disk.counters()
		st.DiskEntries = s.disk.Len()
		st.DiskBytes = s.disk.Bytes()
	}
	return st
}

// Len returns the number of completed-or-in-flight memory-tier slots.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
