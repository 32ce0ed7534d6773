package artifact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"obm/internal/core"
	"obm/internal/mesh"
)

// synthetic returns a deterministic artifact for work-unit index i, so
// concurrency tests can verify every Get returned the right payload.
func synthetic(i int) Artifact {
	n := 8
	m := make(core.Mapping, n)
	for j := range m {
		m[j] = mesh.Tile((j + i) % n)
	}
	apls := make([]float64, 4)
	for k := range apls {
		apls[k] = float64(i)*100 + float64(k) + 0.5
	}
	return Artifact{Mapping: m, Eval: core.Evaluation{APLs: apls, MaxAPL: float64(i) + 0.25}}
}

func unitFor(i int) WorkUnit {
	return NewWorkUnit(fmt.Sprintf("p%03d", i), fmt.Sprintf("m%03d", i), "maxapl")
}

func computeSynthetic(i int, calls *atomic.Int64) func(context.Context) (Artifact, error) {
	return func(context.Context) (Artifact, error) {
		if calls != nil {
			calls.Add(1)
		}
		return synthetic(i), nil
	}
}

// checkSynthetic verifies an artifact matches synthetic(i) bit-exactly.
func checkSynthetic(t *testing.T, a Artifact, i int) {
	t.Helper()
	want := synthetic(i)
	for j := range want.Mapping {
		if a.Mapping[j] != want.Mapping[j] {
			t.Fatalf("unit %d: mapping[%d] = %d, want %d", i, j, a.Mapping[j], want.Mapping[j])
		}
	}
	for k := range want.Eval.APLs {
		if math.Float64bits(a.Eval.APLs[k]) != math.Float64bits(want.Eval.APLs[k]) {
			t.Fatalf("unit %d: APLs[%d] = %v, want %v", i, k, a.Eval.APLs[k], want.Eval.APLs[k])
		}
	}
	if math.Float64bits(a.Eval.MaxAPL) != math.Float64bits(want.Eval.MaxAPL) {
		t.Fatalf("unit %d: MaxAPL = %v, want %v", i, a.Eval.MaxAPL, want.Eval.MaxAPL)
	}
}

func TestStoreMemorySingleflight(t *testing.T) {
	s := NewStore(nil)
	var calls atomic.Int64
	const callers = 8
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, _, err := s.Get(context.Background(), unitFor(1), computeSynthetic(1, &calls))
			if err != nil {
				t.Error(err)
				return
			}
			checkSynthetic(t, a, 1)
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	st := s.Stats()
	if st.Computed != 1 || st.MemHits != callers-1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v, want 1 computed, %d mem hits", st, callers-1)
	}
}

// TestStoreDiskPromotion is the two-tier contract: a fresh store over
// a warmed directory serves from disk without computing, and promotes
// the artifact into its memory tier so the repeat is a memory hit.
func TestStoreDiskPromotion(t *testing.T) {
	dir := t.TempDir()
	disk1, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewStore(disk1)
	var calls atomic.Int64
	if _, src, err := s1.Get(context.Background(), unitFor(3), computeSynthetic(3, &calls)); err != nil || src != SourceComputed {
		t.Fatalf("cold get: src=%v err=%v", src, err)
	}

	// A second store with its own warmed disk tier — a "restart".
	disk2, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStore(disk2)
	a, src, err := s2.Get(context.Background(), unitFor(3), computeSynthetic(3, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceDisk {
		t.Fatalf("warm get source = %v, want disk", src)
	}
	checkSynthetic(t, a, 3)
	a, src, err = s2.Get(context.Background(), unitFor(3), computeSynthetic(3, &calls))
	if err != nil || src != SourceMemory {
		t.Fatalf("promoted get source = %v, err = %v, want memory", src, err)
	}
	checkSynthetic(t, a, 3)
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times across restart, want 1", calls.Load())
	}
	st := s2.Stats()
	if st.Computed != 0 || st.DiskHits != 1 || st.MemHits != 1 {
		t.Errorf("restart stats = %+v, want 0 computed / 1 disk / 1 mem", st)
	}
}

func TestStoreErrorNotCachedOnEitherTier(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(disk)
	boom := fmt.Errorf("mapper exploded")
	if _, _, err := s.Get(context.Background(), unitFor(4), func(context.Context) (Artifact, error) {
		return Artifact{}, boom
	}); err != boom {
		t.Fatalf("err = %v, want the compute error", err)
	}
	if s.Len() != 0 || disk.Len() != 0 {
		t.Errorf("failed computation stored: mem %d, disk %d", s.Len(), disk.Len())
	}
	// The slot retries cleanly.
	a, src, err := s.Get(context.Background(), unitFor(4), computeSynthetic(4, nil))
	if err != nil || src != SourceComputed {
		t.Fatalf("retry: src=%v err=%v", src, err)
	}
	checkSynthetic(t, a, 4)
}

func TestStoreReturnsIndependentCopies(t *testing.T) {
	s := NewStore(nil)
	a1, _, err := s.Get(context.Background(), unitFor(5), computeSynthetic(5, nil))
	if err != nil {
		t.Fatal(err)
	}
	a1.Mapping[0] = 99
	a1.Eval.APLs[0] = -1
	a2, _, err := s.Get(context.Background(), unitFor(5), computeSynthetic(5, nil))
	if err != nil {
		t.Fatal(err)
	}
	checkSynthetic(t, a2, 5)
}

// TestStoreWaiterLeavesOnItsContext: a waiter whose own ctx ends stops
// waiting with ctx's error, while the flight it left completes and is
// kept for later callers.
func TestStoreWaiterLeavesOnItsContext(t *testing.T) {
	s := NewStore(nil)
	started, release := make(chan struct{}), make(chan struct{})
	led := make(chan error, 1)
	go func() {
		_, _, err := s.Get(context.Background(), unitFor(6), func(context.Context) (Artifact, error) {
			close(started)
			<-release
			return synthetic(6), nil
		})
		led <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, src, err := s.Get(ctx, unitFor(6), computeSynthetic(6, nil)); !errors.Is(err, context.Canceled) || src != SourceMemory {
		t.Fatalf("cancelled waiter: src=%v err=%v, want memory and context.Canceled", src, err)
	}
	close(release)
	if err := <-led; err != nil {
		t.Fatal(err)
	}
	a, src, err := s.Get(context.Background(), unitFor(6), computeSynthetic(6, nil))
	if err != nil || src != SourceMemory {
		t.Fatalf("after the flight: src=%v err=%v, want a memory hit", src, err)
	}
	checkSynthetic(t, a, 6)
}
