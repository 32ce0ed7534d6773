package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"obm/internal/engine"
)

// blockingExec returns an execute stub that parks each job until
// release is closed (or its context is cancelled), recording which
// requests actually executed. started receives the job's first
// experiment ID the moment it begins running.
func blockingExec(started chan<- string, release <-chan struct{}) (func(context.Context, Request, ExecConfig) (*Outcome, error), func() []string) {
	var mu sync.Mutex
	var ran []string
	exec := func(ctx context.Context, req Request, ec ExecConfig) (*Outcome, error) {
		mu.Lock()
		ran = append(ran, req.Experiments[0])
		mu.Unlock()
		if started != nil {
			started <- req.Experiments[0]
		}
		select {
		case <-release:
			env, err := Envelope(req, nil, nil)
			if err != nil {
				return nil, err
			}
			return &Outcome{Envelope: env}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return exec, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), ran...)
	}
}

// waitState polls until the job reaches want (fails the test after 5s).
func waitState(t *testing.T, m *Manager, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := m.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestManagerLifecycleDone(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	exec, _ := blockingExec(started, release)
	m := NewManager(Config{execute: exec})
	defer m.Close()

	st, err := m.Submit(Request{Experiments: []string{"fig5"}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || (st.State != StateQueued && st.State != StateRunning) {
		t.Fatalf("submit status = %+v", st)
	}
	<-started
	waitState(t, m, st.ID, StateRunning)
	if _, err := m.Result(st.ID); !errors.Is(err, ErrNotFinished) {
		t.Errorf("Result while running = %v, want ErrNotFinished", err)
	}
	close(release)
	final := waitState(t, m, st.ID, StateDone)
	if final.Started == nil || final.Finished == nil {
		t.Errorf("terminal status missing timestamps: %+v", final)
	}
	env, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(env) == 0 {
		t.Error("empty envelope")
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	exec, _ := blockingExec(nil, nil)
	m := NewManager(Config{execute: exec})
	defer m.Close()
	cases := []Request{
		{},                              // no experiments
		{Experiments: []string{"nope"}}, // unknown experiment
		{Experiments: []string{"fig5"}, Objective: "bogus"},       // bad objective
		{Experiments: []string{"fig5"}, Configs: []string{"C99"}}, // unknown config
	}
	for _, req := range cases {
		if _, err := m.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Submit(%+v) err = %v, want ErrBadRequest", req, err)
		}
	}
}

// TestQueueFullTyped fills the single worker and the one-slot queue,
// then checks the next submit is refused with ErrQueueFull (the
// daemon's HTTP 429).
func TestQueueFullTyped(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	exec, _ := blockingExec(started, release)
	m := NewManager(Config{Queue: 1, Concurrency: 1, execute: exec})
	defer func() { close(release); m.Close() }()

	a, err := m.Submit(Request{Experiments: []string{"fig5"}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // a occupies the worker; the queue slot is free again
	waitState(t, m, a.ID, StateRunning)
	if _, err := m.Submit(Request{Experiments: []string{"table3"}}); err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}
	_, err = m.Submit(Request{Experiments: []string{"fig9"}})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	if code := errStatus(err); code != 429 {
		t.Errorf("ErrQueueFull maps to HTTP %d, want 429", code)
	}
}

// TestCancelWhileQueuedNeverStarts is the admission-control half of the
// cancel contract: cancelling a queued job transitions it terminally
// before a worker ever picks it up, and the executor never sees it.
func TestCancelWhileQueuedNeverStarts(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	exec, ran := blockingExec(started, release)
	m := NewManager(Config{Queue: 4, Concurrency: 1, execute: exec})
	defer m.Close()

	a, _ := m.Submit(Request{Experiments: []string{"fig5"}})
	<-started
	waitState(t, m, a.ID, StateRunning)
	b, err := m.Submit(Request{Experiments: []string{"table3"}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(b.ID)
	if err != nil || st.State != StateCancelled {
		t.Fatalf("cancel queued: %+v, %v", st, err)
	}
	close(release) // let a finish; the worker then drains the queue
	waitState(t, m, a.ID, StateDone)
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ran() {
		if id == "table3" {
			t.Error("cancelled-while-queued job was executed")
		}
	}
	if _, err := m.Result(b.ID); err == nil || errors.Is(err, ErrNotFinished) {
		t.Errorf("Result of cancelled job = %v, want its cancellation error", err)
	}
}

// TestCancelRunningUnwinds cancels an in-flight job and checks it
// terminates as cancelled via its context.
func TestCancelRunningUnwinds(t *testing.T) {
	started := make(chan string, 1)
	exec, _ := blockingExec(started, nil) // only ctx cancellation releases it
	m := NewManager(Config{execute: exec})
	defer m.Close()

	a, _ := m.Submit(Request{Experiments: []string{"fig5"}})
	<-started
	waitState(t, m, a.ID, StateRunning)
	if _, err := m.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, a.ID, StateCancelled)
	if st.Error == "" {
		t.Error("cancelled job carries no error")
	}
}

// TestDrainGraceful: in-flight jobs finish, queued jobs are rejected,
// new submits are refused — the SIGTERM contract.
func TestDrainGraceful(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	exec, ran := blockingExec(started, release)
	m := NewManager(Config{Queue: 4, Concurrency: 1, execute: exec})
	defer m.Close()

	a, _ := m.Submit(Request{Experiments: []string{"fig5"}})
	<-started
	waitState(t, m, a.ID, StateRunning)
	b, _ := m.Submit(Request{Experiments: []string{"table3"}})

	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()

	// The drain must reject the queued job and refuse new submits
	// while the in-flight job is still running.
	waitState(t, m, b.ID, StateCancelled)
	if st, _ := m.Status(b.ID); st.Error != ErrDraining.Error() {
		t.Errorf("queued job error = %q, want %q", st.Error, ErrDraining)
	}
	if _, err := m.Submit(Request{Experiments: []string{"fig9"}}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit during drain = %v, want ErrDraining", err)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st, _ := m.Status(a.ID); st.State != StateDone {
		t.Errorf("in-flight job state after drain = %s, want done", st.State)
	}
	if _, err := m.Result(a.ID); err != nil {
		t.Errorf("result unavailable after drain: %v", err)
	}
	for _, id := range ran() {
		if id == "table3" {
			t.Error("drain-rejected job was executed")
		}
	}
}

// TestDrainForcedByContext: when the drain budget expires, in-flight
// jobs are cancelled rather than awaited forever.
func TestDrainForcedByContext(t *testing.T) {
	started := make(chan string, 1)
	exec, _ := blockingExec(started, nil) // never releases voluntarily
	m := NewManager(Config{execute: exec})

	a, _ := m.Submit(Request{Experiments: []string{"fig5"}})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain err = %v, want deadline exceeded", err)
	}
	if st, _ := m.Status(a.ID); st.State != StateCancelled {
		t.Errorf("in-flight job after forced drain = %s, want cancelled", st.State)
	}
}

// TestRetentionExpiry: a finished job's status, events, and result all
// become ErrNotFound once retention passes.
func TestRetentionExpiry(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	release := make(chan struct{})
	close(release) // jobs complete immediately
	exec, _ := blockingExec(nil, release)
	m := NewManager(Config{Retention: time.Hour, now: clock, execute: exec})
	defer m.Close()

	a, err := m.Submit(Request{Experiments: []string{"fig5"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, a.ID, StateDone)
	if _, err := m.Result(a.ID); err != nil {
		t.Fatalf("result before expiry: %v", err)
	}

	advance(2 * time.Hour)
	if _, err := m.Status(a.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("Status after expiry = %v, want ErrNotFound", err)
	}
	if _, err := m.Result(a.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("Result after expiry = %v, want ErrNotFound", err)
	}
	if _, _, err := m.Events(a.ID, 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("Events after expiry = %v, want ErrNotFound", err)
	}
}

// TestEventsCursorResume: a consumer polling with the returned cursor
// sees every journal event exactly once, in Seq order.
func TestEventsCursorResume(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	exec := func(ctx context.Context, req Request, ec ExecConfig) (*Outcome, error) {
		sink := ec.Sink // the job's journal, which stamps Seq
		for i := 1; i <= 5; i++ {
			sink.Event(engine.Progress{Stage: "work", Done: i, Total: 5})
		}
		started <- "ok"
		<-release
		sink.Event(engine.Progress{Stage: "work", Done: 5, Total: 5, Final: true})
		env, _ := Envelope(req, nil, nil)
		return &Outcome{Envelope: env}, nil
	}
	m := NewManager(Config{execute: exec})
	defer m.Close()

	a, _ := m.Submit(Request{Experiments: []string{"fig5"}})
	<-started
	evs, next, err := m.Events(a.ID, 0)
	if err != nil || len(evs) != 5 || next != 5 {
		t.Fatalf("first poll: %d events, next %d, err %v; want 5, 5", len(evs), next, err)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d Seq = %d", i, ev.Seq)
		}
	}
	if evs2, next2, _ := m.Events(a.ID, next); len(evs2) != 0 || next2 != next {
		t.Errorf("poll at head returned %d events, next %d", len(evs2), next2)
	}
	close(release)
	waitState(t, m, a.ID, StateDone)
	evs3, next3, _ := m.Events(a.ID, next)
	if len(evs3) != 1 || !evs3[0].Final || next3 != 6 {
		t.Errorf("resumed poll = %+v next %d, want the one Final event and cursor 6", evs3, next3)
	}
}
