package scenario

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"obm/internal/artifact"
	"obm/internal/core"
)

// TestInputsBuildOnceUnderConcurrency: concurrent first requests for
// one key share a single build and the same problem.
func TestInputsBuildOnceUnderConcurrency(t *testing.T) {
	c := NewCache()
	var builds atomic.Int32
	build := func() (*core.Problem, error) {
		builds.Add(1)
		return testProblem(t, "C2"), nil
	}
	const callers = 8
	got := make([]*core.Problem, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := c.Problem("C2", build)
			if err != nil {
				t.Error(err)
			}
			got[i] = p
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for one key, want 1", n)
	}
	for i, p := range got {
		if p != got[0] {
			t.Errorf("caller %d got another problem", i)
		}
	}
	if c.Inputs() != 1 {
		t.Errorf("Inputs() = %d, want 1", c.Inputs())
	}
}

// TestInputsForgetFailures: a build that fails or panics leaves no
// entry, so the next request builds again; a success is then kept.
func TestInputsForgetFailures(t *testing.T) {
	c := NewCache()
	var builds int
	fail := func() (*core.Problem, error) {
		builds++
		return nil, errors.New("no such workload")
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Problem("bad", fail); err == nil {
			t.Fatal("failed build returned no error")
		}
	}
	if builds != 2 || c.Inputs() != 0 {
		t.Fatalf("after two failures: %d builds, %d entries; want 2, 0", builds, c.Inputs())
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("a panicking build did not re-raise its panic")
			}
		}()
		c.Problem("boom", func() (*core.Problem, error) { panic("build exploded") })
	}()
	if c.Inputs() != 0 {
		t.Fatalf("a panicking build left %d entries", c.Inputs())
	}
	p, err := c.Problem("boom", func() (*core.Problem, error) { return testProblem(t, "C1"), nil })
	if err != nil || p == nil {
		t.Fatalf("retry after a panic: %v", err)
	}
	if c.Inputs() != 1 {
		t.Errorf("Inputs() = %d after one success, want 1", c.Inputs())
	}
}

// TestRandomAveragesHitIsACopy: the memoized baseline equals
// core.RandomAverages bit for bit, and a caller mutating what it got
// cannot change what a later hit returns.
func TestRandomAveragesHitIsACopy(t *testing.T) {
	c := NewCache()
	ps := []*core.Problem{testProblem(t, "C1"), testProblem(t, "C3")}
	want, err := core.RandomAverages(ps, 9, 200)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.RandomAverages(ps, 9, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		first[i] = core.RandomAverage{GlobalAPL: -1, MaxAPL: -1, DevAPL: -1}
	}
	// Independently built problems with the same content hit the entry.
	again, err := c.RandomAverages([]*core.Problem{testProblem(t, "C1"), testProblem(t, "C3")}, 9, 200)
	if err != nil {
		t.Fatal(err)
	}
	if c.Inputs() != 1 {
		t.Fatalf("Inputs() = %d, want 1", c.Inputs())
	}
	for i := range want {
		if again[i] != want[i] {
			t.Errorf("hit %d = %+v, want %+v", i, again[i], want[i])
		}
	}
	// Another seed, draw count or problem order is another entry.
	for _, call := range []func() error{
		func() error { _, err := c.RandomAverages(ps, 10, 200); return err },
		func() error { _, err := c.RandomAverages(ps, 9, 201); return err },
		func() error { _, err := c.RandomAverages([]*core.Problem{ps[1], ps[0]}, 9, 200); return err },
	} {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Inputs() != 4 {
		t.Errorf("Inputs() = %d, want 4 distinct entries", c.Inputs())
	}
}

// TestLowerBoundMemoized: the memoized bound equals Problem.LowerBound
// and is keyed by content, not by pointer.
func TestLowerBoundMemoized(t *testing.T) {
	c := NewCache()
	p := testProblem(t, "C5")
	want, err := p.LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*core.Problem{p, testProblem(t, "C5")} {
		got, err := c.LowerBound(q)
		if err != nil || got != want {
			t.Fatalf("LowerBound = %v, %v; want %v", got, err, want)
		}
	}
	if c.Inputs() != 1 {
		t.Errorf("Inputs() = %d, want 1", c.Inputs())
	}
}

// TestInputsInvisibleToStore: memo builds and hits leave the artifact
// accounting untouched (the memo takes no context, so it cannot report
// progress either).
func TestInputsInvisibleToStore(t *testing.T) {
	c := NewCache()
	p := testProblem(t, "C1")
	for i := 0; i < 2; i++ {
		if _, err := c.LowerBound(p); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RandomAverages([]*core.Problem{p}, 1, 10); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.StoreStats(); st != (artifact.Stats{}) || c.Len() != 0 {
		t.Errorf("store moved: %+v, %d entries", st, c.Len())
	}
}

// TestResetSharedDropsInputs: a fresh shared cache holds no input.
func TestResetSharedDropsInputs(t *testing.T) {
	c := ResetShared()
	t.Cleanup(func() { ResetShared() })
	if _, err := c.LowerBound(testProblem(t, "C1")); err != nil {
		t.Fatal(err)
	}
	if c.Inputs() != 1 {
		t.Fatalf("Inputs() = %d, want 1", c.Inputs())
	}
	if n := ResetShared().Inputs(); n != 0 {
		t.Errorf("ResetShared kept %d inputs", n)
	}
	d, err := ConfigureShared(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Inputs(); n != 0 {
		t.Errorf("ConfigureShared kept %d inputs", n)
	}
}
