package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"obm/internal/service"
)

// failKind says why a job did not count as done.
type failKind int

const (
	failNone      failKind = iota
	failRefused            // the daemon answered 429 (queue full) or 503 (draining)
	failTransport          // no HTTP answer at all
	failJob                // any other answer than a done job and its envelope
)

func (k failKind) String() string {
	switch k {
	case failNone:
		return "ok"
	case failRefused:
		return "refused"
	case failTransport:
		return "transport"
	default:
		return "job"
	}
}

// jobOutcome is one job as a closed-loop client saw it: submitted,
// polled until terminal, and its envelope fetched.
type jobOutcome struct {
	req      service.Request
	id       string
	fail     failKind
	err      error
	latency  time.Duration // submit → envelope fetched, host clock
	created  time.Time     // daemon clock
	started  time.Time
	finished time.Time
	polls    int
	envelope []byte
}

// client is one closed-loop client holding a single connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// httpError classifies a non-success answer.
type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// classify maps a request error onto the failure it counts as.
func classify(err error) failKind {
	var he *httpError
	switch {
	case err == nil:
		return failNone
	case errors.As(err, &he) && (he.code == http.StatusTooManyRequests || he.code == http.StatusServiceUnavailable):
		return failRefused
	case errors.As(err, &he):
		return failJob
	default:
		return failTransport
	}
}

// do sends one request and returns the body of a want-status answer.
func (c *client) do(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, &httpError{code: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	return data, nil
}

// pollDelay spaces status polls at a tenth of the time waited so far,
// between 1ms and 25ms: short jobs are seen promptly and long ones do
// not flood the daemon.
func pollDelay(waited time.Duration) time.Duration {
	return min(max(waited/10, time.Millisecond), 25*time.Millisecond)
}

// statusBody is GET /v1/jobs/{id}'s answer.
type statusBody struct {
	service.Status
	NextCursor uint64 `json:"next_cursor"`
}

// runJob drives one job through the daemon's HTTP API. Spans go under
// parent when tr is non-nil.
func (c *client) runJob(ctx context.Context, req service.Request, tr *tracer, parent int) jobOutcome {
	out := jobOutcome{req: req}
	start := time.Now()
	job := tr.begin("job", parent)
	defer tr.end(job)
	fail := func(kind failKind, err error) jobOutcome {
		out.fail, out.err = kind, err
		return out
	}

	body, err := json.Marshal(req)
	if err != nil {
		return fail(failJob, err)
	}
	sp := tr.begin("http.submit", job)
	data, err := c.do(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted)
	tr.end(sp)
	if err != nil {
		return fail(classify(err), fmt.Errorf("submit: %w", err))
	}
	var st statusBody
	if err := json.Unmarshal(data, &st); err != nil {
		return fail(failJob, fmt.Errorf("submit: decoding status: %w", err))
	}
	out.id = st.ID
	for !st.State.Terminal() {
		select {
		case <-ctx.Done():
			return fail(failTransport, ctx.Err())
		case <-time.After(pollDelay(time.Since(start))):
		}
		sp := tr.begin("http.poll", job)
		data, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/jobs/%s?cursor=%d", out.id, st.NextCursor), nil, http.StatusOK)
		tr.end(sp)
		out.polls++
		if err != nil {
			return fail(classify(err), fmt.Errorf("poll %s: %w", out.id, err))
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return fail(failJob, fmt.Errorf("poll %s: decoding status: %w", out.id, err))
		}
	}
	if st.State != service.StateDone {
		return fail(failJob, fmt.Errorf("job %s ended %s: %s", out.id, st.State, st.Error))
	}
	sp = tr.begin("http.fetch", job)
	env, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+out.id+"/result", nil, http.StatusOK)
	tr.end(sp)
	if err != nil {
		return fail(classify(err), fmt.Errorf("fetch %s: %w", out.id, err))
	}
	out.latency = time.Since(start)
	out.envelope = env
	out.created = st.Created
	if st.Started != nil && st.Finished != nil {
		out.started, out.finished = *st.Started, *st.Finished
		tr.add("service.queue_wait", job, out.created, out.started)
		tr.add("service.exec", job, out.started, out.finished)
	}
	return out
}

// fetchResult refetches a finished job's envelope.
func (c *client) fetchResult(ctx context.Context, id string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, http.StatusOK)
}

// tally counts attempts and failures by kind; nothing that was tried is
// dropped.
type tally struct {
	attempted int
	failed    map[failKind]int
	checks    []string // failed output checks, each also one failure
}

func (t *tally) job(o jobOutcome) {
	t.attempted++
	if o.fail != failNone {
		if t.failed == nil {
			t.failed = make(map[failKind]int)
		}
		t.failed[o.fail]++
	}
}

func (t *tally) checkFailed(format string, args ...any) {
	t.checks = append(t.checks, fmt.Sprintf(format, args...))
}

func (t *tally) failures() int {
	n := len(t.checks)
	for _, c := range t.failed {
		n += c
	}
	return n
}
