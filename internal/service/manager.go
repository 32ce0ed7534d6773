package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"obm/internal/artifact"
	"obm/internal/engine"
	"obm/internal/obs"
)

// State is a job's position in the submit → queued → running →
// (done | failed | cancelled) lifecycle.
type State string

const (
	// StateQueued: admitted, waiting for a worker slot.
	StateQueued State = "queued"
	// StateRunning: executing on a worker.
	StateRunning State = "running"
	// StateDone: finished successfully; the result envelope is
	// available until retention expiry.
	StateDone State = "done"
	// StateFailed: finished with an error (experiment failure, panic,
	// deadline).
	StateFailed State = "failed"
	// StateCancelled: cancelled by the client before or during
	// execution, or rejected from the queue by a drain.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Typed lifecycle errors. Transports map these onto their own status
// codes (the HTTP handler: 429, 503, 404, 409).
var (
	// ErrQueueFull rejects a submit when the admission queue is at
	// capacity.
	ErrQueueFull = errors.New("admission queue full")
	// ErrDraining rejects submits (and fails queued jobs) once a drain
	// has begun.
	ErrDraining = errors.New("service draining")
	// ErrNotFound names an unknown — or retention-expired — job ID.
	ErrNotFound = errors.New("job not found")
	// ErrNotFinished rejects a result fetch while the job is still
	// queued or running.
	ErrNotFinished = errors.New("job not finished")
)

// Config tunes a Manager. The zero value is usable: queue 64, one
// worker, one hour of result retention.
type Config struct {
	// Queue bounds the admission queue (jobs admitted but not yet
	// running); <= 0 means the default 64.
	Queue int
	// Concurrency is the number of jobs running at once; <= 0 means 1.
	// Note per-job artifact stats are exact deltas only at concurrency
	// 1 (jobs overlapping in the process share the one store).
	Concurrency int
	// Retention is how long finished jobs (state, journal, result) stay
	// fetchable; 0 means the default hour, < 0 retains forever.
	Retention time.Duration

	// now is the test clock hook; nil means time.Now.
	now func() time.Time
	// execute is the test execution hook; nil means Execute.
	execute func(context.Context, Request, ExecConfig) (*Outcome, error)
}

// DefaultQueue and DefaultRetention are Config's zero-value defaults.
const (
	DefaultQueue     = 64
	DefaultRetention = time.Hour
)

// Status is a job's externally visible state: the daemon returns it
// from GET /v1/jobs/{id} (and POST/DELETE echo it).
type Status struct {
	ID      string    `json:"id"`
	State   State     `json:"state"`
	Request Request   `json:"request"`
	Created time.Time `json:"created"`
	// Started/Finished are nil until the job reaches that point.
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Error carries the failure (or cancellation reason) for terminal
	// non-done states.
	Error string `json:"error,omitempty"`
	// Artifacts is the job's artifact-store traffic delta, set once the
	// job finishes: a warm re-submit of a cached scenario shows
	// Computed 0 here.
	Artifacts *artifact.Stats `json:"artifacts,omitempty"`
	// Events is the journal length — the highest progress Seq so far,
	// i.e. the cursor at which a poll would currently find nothing new.
	Events uint64 `json:"events"`
}

// job is the Manager's internal record.
type job struct {
	id       string
	req      Request
	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	err      error
	journal  *Journal

	// envelope and artifacts are all a finished job serves; the rest of
	// its Outcome (the typed results and their documents) is dropped.
	envelope  []byte
	artifacts *artifact.Stats

	cancel          context.CancelFunc // set while running
	cancelRequested bool
}

// Manager owns the job lifecycle for a long-running host: a bounded
// admission queue feeding a fixed worker pool, per-job progress
// journals, cancellation, result retention, and graceful drain. All
// methods are safe for concurrent use.
type Manager struct {
	cfg     Config
	now     func() time.Time
	execute func(context.Context, Request, ExecConfig) (*Outcome, error)

	rootCtx    context.Context
	cancelRoot context.CancelFunc
	queue      chan *job
	workers    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	nextID   uint64
	draining bool

	// metrics
	submitted, rejected, completed, failed, cancelled *obs.Counter
	queued, running                                   *obs.Gauge
	jobTimer                                          *obs.Timer
}

// NewManager starts a manager with cfg's queue bound, worker count,
// and retention. Stop it with Drain (graceful) or Close (prompt).
func NewManager(cfg Config) *Manager {
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultQueue
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Retention == 0 {
		cfg.Retention = DefaultRetention
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.execute == nil {
		cfg.execute = Execute
	}
	ctx, cancel := context.WithCancel(context.Background())
	reg := obs.Default()
	m := &Manager{
		cfg:        cfg,
		now:        cfg.now,
		execute:    cfg.execute,
		rootCtx:    ctx,
		cancelRoot: cancel,
		queue:      make(chan *job, cfg.Queue),
		jobs:       make(map[string]*job),
		submitted:  reg.Counter("service.jobs.submitted"),
		rejected:   reg.Counter("service.jobs.rejected"),
		completed:  reg.Counter("service.jobs.completed"),
		failed:     reg.Counter("service.jobs.failed"),
		cancelled:  reg.Counter("service.jobs.cancelled"),
		queued:     reg.Gauge("service.jobs.queued"),
		running:    reg.Gauge("service.jobs.running"),
		jobTimer:   reg.Timer("service.job.seconds"),
	}
	for i := 0; i < cfg.Concurrency; i++ {
		m.workers.Add(1)
		go m.worker()
	}
	return m
}

// Submit validates req, admits it to the queue, and returns the new
// job's status. Typed failures: ErrBadRequest (resolution), ErrDraining
// (shutdown begun), ErrQueueFull (admission queue at capacity).
// Validation is synchronous, so a bad request never occupies a queue
// slot.
func (m *Manager) Submit(req Request) (Status, error) {
	req = req.Normalized()
	if _, _, err := req.Resolve(); err != nil {
		return Status{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked()
	if m.draining {
		return Status{}, ErrDraining
	}
	m.nextID++
	j := &job{
		id:      fmt.Sprintf("job-%06d", m.nextID),
		req:     req,
		state:   StateQueued,
		created: m.now(),
		journal: &Journal{},
	}
	select {
	case m.queue <- j:
	default:
		m.nextID-- // ID not spent: the job was never admitted
		m.rejected.Inc()
		return Status{}, fmt.Errorf("%w (capacity %d)", ErrQueueFull, m.cfg.Queue)
	}
	m.jobs[j.id] = j
	m.submitted.Inc()
	m.queued.Add(1)
	return m.statusLocked(j), nil
}

// Status returns a job's current status; ErrNotFound for unknown or
// retention-expired IDs.
func (m *Manager) Status(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return m.statusLocked(j), nil
}

// Events returns a copy of the job's progress events with Seq > cursor
// and the cursor to poll from next. A consumer that stores the returned
// cursor between polls sees every event exactly once, in order.
func (m *Manager) Events(id string, cursor uint64) ([]engine.Progress, uint64, error) {
	m.mu.Lock()
	m.sweepLocked()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, cursor, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	evs, next := j.journal.Since(cursor)
	return evs, next, nil
}

// Result returns the finished job's obmsim.run/v1 envelope.
// ErrNotFound for unknown/expired IDs, ErrNotFinished while the job is
// queued or running, and the job's own error for failed or cancelled
// jobs.
func (m *Manager) Result(id string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	switch {
	case !j.state.Terminal():
		return nil, fmt.Errorf("%w: %s is %s", ErrNotFinished, id, j.state)
	case j.state != StateDone:
		return nil, fmt.Errorf("job %s %s: %w", id, j.state, j.err)
	}
	return j.envelope, nil
}

// Cancel requests cancellation: a queued job never starts (its state
// becomes cancelled immediately), a running job's context is cancelled
// and the job unwinds promptly through the engine's cancellation
// plumbing, and a terminal job is left as-is. Returns the resulting
// status.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.err = errors.New("cancelled while queued")
		j.finished = m.now()
		m.queued.Add(-1)
		m.cancelled.Inc()
	case StateRunning:
		j.cancelRequested = true
		j.cancel()
	}
	return m.statusLocked(j), nil
}

// Drain begins graceful shutdown: new submits are refused with
// ErrDraining, jobs still waiting in the queue are cancelled without
// starting, and in-flight jobs run to completion. Drain blocks until
// the workers have finished; if ctx expires first, the in-flight jobs
// are cancelled and Drain returns ctx.Err() after they unwind.
// Idempotent: later calls just wait.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		for _, j := range m.jobs {
			if j.state == StateQueued {
				j.state = StateCancelled
				j.err = ErrDraining
				j.finished = m.now()
				m.queued.Add(-1)
				m.cancelled.Inc()
			}
		}
		close(m.queue)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.cancelRoot()
		<-done
		return ctx.Err()
	}
}

// Close shuts down promptly: cancels every in-flight job and drains.
func (m *Manager) Close() {
	m.cancelRoot()
	m.Drain(context.Background())
}

// worker consumes the queue until drained.
func (m *Manager) worker() {
	defer m.workers.Done()
	for j := range m.queue {
		ctx, ok := m.start(j)
		if !ok {
			continue // cancelled while queued
		}
		m.run(ctx, j)
	}
}

// start transitions a dequeued job to running; false when the job was
// cancelled while queued.
func (m *Manager) start(j *job) (context.Context, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.state != StateQueued {
		return nil, false
	}
	ctx, cancel := context.WithCancel(m.rootCtx)
	j.state = StateRunning
	j.started = m.now()
	j.cancel = cancel
	m.queued.Add(-1)
	m.running.Add(1)
	return ctx, true
}

// run executes one job and records its terminal state.
func (m *Manager) run(ctx context.Context, j *job) {
	out, err := m.execute(ctx, j.req, ExecConfig{Sink: j.journal})

	m.mu.Lock()
	defer m.mu.Unlock()
	j.cancel()
	j.finished = m.now()
	if out != nil {
		stats := out.Stats
		j.envelope, j.artifacts = out.Envelope, &stats
	}
	j.err = err
	switch {
	case err == nil:
		j.state = StateDone
		m.completed.Inc()
	case j.cancelRequested || errors.Is(err, context.Canceled):
		j.state = StateCancelled
		m.cancelled.Inc()
	default:
		j.state = StateFailed
		m.failed.Inc()
	}
	m.running.Add(-1)
	m.jobTimer.Observe(j.finished.Sub(j.started))
}

// statusLocked builds the external view; callers hold m.mu.
func (m *Manager) statusLocked(j *job) Status {
	s := Status{
		ID:      j.id,
		State:   j.state,
		Request: j.req,
		Created: j.created,
		Events:  uint64(j.journal.Len()),
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if j.artifacts != nil {
		stats := *j.artifacts
		s.Artifacts = &stats
	}
	return s
}

// sweepLocked drops terminal jobs past their retention; callers hold
// m.mu. Lazy sweeping on every lookup/submit keeps expiry deterministic
// under an injected test clock — no background janitor to race with.
func (m *Manager) sweepLocked() {
	if m.cfg.Retention < 0 {
		return
	}
	now := m.now()
	for id, j := range m.jobs {
		if j.state.Terminal() && now.Sub(j.finished) > m.cfg.Retention {
			delete(m.jobs, id)
		}
	}
}
