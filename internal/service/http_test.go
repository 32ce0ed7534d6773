package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"obm/internal/engine"
	"obm/internal/scenario"
)

// httpFixture serves a stub-backed manager over httptest.
func httpFixture(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(cfg)
	srv := httptest.NewServer(Handler(m))
	t.Cleanup(func() { srv.Close(); m.Close() })
	return srv, m
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestHTTPLifecycle drives submit → status+events → result → done over
// the wire with an instant stub executor.
func TestHTTPLifecycle(t *testing.T) {
	release := make(chan struct{})
	close(release)
	exec := func(ctx context.Context, req Request, ec ExecConfig) (*Outcome, error) {
		ec.Sink.Event(engine.Progress{Stage: "stage", Done: 1, Total: 1, Final: true})
		env, err := Envelope(req, nil, nil)
		return &Outcome{Envelope: env}, err
	}
	srv, _ := httpFixture(t, Config{execute: exec})

	resp, body := doJSON(t, "POST", srv.URL+"/v1/jobs", Request{Experiments: []string{"fig5"}, Quick: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("submit body %s: %v", body, err)
	}

	var sr struct {
		Status
		Events     []wireEvent `json:"progress"`
		NextCursor uint64      `json:"next_cursor"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body = doJSON(t, "GET", srv.URL+"/v1/jobs/"+st.ID+"?cursor=0", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", sr.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if len(sr.Events) != 1 || sr.Events[0].Seq != 1 || !sr.Events[0].Final || sr.NextCursor != 1 {
		t.Errorf("events = %+v next %d", sr.Events, sr.NextCursor)
	}

	resp, body = doJSON(t, "GET", srv.URL+"/v1/jobs/"+st.ID+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, body)
	}
	var env struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Schema != RunSchema {
		t.Errorf("result envelope %s: %v", body, err)
	}
}

// TestHTTPErrorMapping checks each typed failure surfaces as its
// documented status code with a JSON error body.
func TestHTTPErrorMapping(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	exec, _ := blockingExec(started, release)
	srv, m := httpFixture(t, Config{Queue: 1, Concurrency: 1, execute: exec})
	defer close(release)

	check := func(wantCode int, resp *http.Response, body []byte) {
		t.Helper()
		if resp.StatusCode != wantCode {
			t.Errorf("status = %d %s, want %d", resp.StatusCode, body, wantCode)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("error body %s: %v", body, err)
		}
	}

	// 400: malformed body, bad request, per-job cache override.
	resp, body := doJSON(t, "POST", srv.URL+"/v1/jobs", nil)
	check(http.StatusBadRequest, resp, body)
	resp, body = doJSON(t, "POST", srv.URL+"/v1/jobs", Request{Experiments: []string{"nope"}})
	check(http.StatusBadRequest, resp, body)
	resp, body = doJSON(t, "POST", srv.URL+"/v1/jobs", Request{Experiments: []string{"fig5"}, CacheDir: "/tmp/x"})
	check(http.StatusBadRequest, resp, body)
	resp, body = doJSON(t, "POST", srv.URL+"/v1/jobs", Request{Experiments: []string{"fig5"}, Objective: "weighted:max=nan"})
	check(http.StatusBadRequest, resp, body)
	resp, body = doJSON(t, "POST", srv.URL+"/v1/jobs", Request{Experiments: []string{"dynstream"}, Stream: "gap=NaN"})
	check(http.StatusBadRequest, resp, body)

	// 404: unknown job, for status, result, and cancel.
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/jobs/job-999999"},
		{"GET", "/v1/jobs/job-999999/result"},
		{"DELETE", "/v1/jobs/job-999999"},
	} {
		resp, body = doJSON(t, probe.method, srv.URL+probe.path, nil)
		check(http.StatusNotFound, resp, body)
	}

	// Occupy the worker, fill the queue: 409 while running, then 429.
	resp, body = doJSON(t, "POST", srv.URL+"/v1/jobs", Request{Experiments: []string{"fig5"}})
	var a Status
	json.Unmarshal(body, &a)
	<-started
	waitState(t, m, a.ID, StateRunning)
	resp, body = doJSON(t, "GET", srv.URL+"/v1/jobs/"+a.ID+"/result", nil)
	check(http.StatusConflict, resp, body)
	doJSON(t, "POST", srv.URL+"/v1/jobs", Request{Experiments: []string{"table3"}})
	resp, body = doJSON(t, "POST", srv.URL+"/v1/jobs", Request{Experiments: []string{"fig9"}})
	check(http.StatusTooManyRequests, resp, body)
}

// TestHTTPIgnoresRetiredWorkersField pins compatibility with clients
// that still send the retired "workers" field: the decoder ignores it,
// and a job computed from scratch with it yields the same envelope
// bytes as one without it, because every mapper runs sequentially.
func TestHTTPIgnoresRetiredWorkersField(t *testing.T) {
	t.Cleanup(func() { scenario.ResetShared() })
	srv, m := httpFixture(t, Config{})
	var envs [][]byte
	for _, raw := range []string{
		`{"experiments":["table4"],"quick":true,"configs":["C1"],"workers":4}`,
		`{"experiments":["table4"],"quick":true,"configs":["C1"]}`,
	} {
		scenario.ResetShared()
		resp, body := doJSON(t, "POST", srv.URL+"/v1/jobs", json.RawMessage(raw))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", raw, resp.StatusCode, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		waitState(t, m, st.ID, StateDone)
		resp, body = doJSON(t, "GET", srv.URL+"/v1/jobs/"+st.ID+"/result", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result: %d %s", resp.StatusCode, body)
		}
		envs = append(envs, body)
	}
	if !bytes.Contains(envs[1], []byte(`"id": "table4"`)) {
		t.Fatalf("result is not a table4 envelope: %s", envs[1])
	}
	if !bytes.Equal(envs[0], envs[1]) {
		t.Errorf("envelope depends on the retired workers field:\n%s\nvs\n%s", envs[0], envs[1])
	}
}

// TestHTTPCancelAndGoneResult cancels a running job over the wire and
// checks DELETE echoes the status and the result reports 410.
func TestHTTPCancelAndGoneResult(t *testing.T) {
	started := make(chan string, 1)
	exec, _ := blockingExec(started, nil)
	srv, m := httpFixture(t, Config{execute: exec})

	_, body := doJSON(t, "POST", srv.URL+"/v1/jobs", Request{Experiments: []string{"fig5"}})
	var a Status
	json.Unmarshal(body, &a)
	<-started
	waitState(t, m, a.ID, StateRunning)

	resp, body := doJSON(t, "DELETE", srv.URL+"/v1/jobs/"+a.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %s", resp.StatusCode, body)
	}
	waitState(t, m, a.ID, StateCancelled)
	resp, body = doJSON(t, "GET", srv.URL+"/v1/jobs/"+a.ID+"/result", nil)
	if resp.StatusCode != http.StatusGone {
		t.Errorf("result of cancelled job: %d %s, want 410", resp.StatusCode, body)
	}
}

// TestHTTPExperimentsAndMetrics: the registry listing and the
// Prometheus exposition endpoints.
func TestHTTPExperimentsAndMetrics(t *testing.T) {
	exec, _ := blockingExec(nil, nil)
	srv, _ := httpFixture(t, Config{execute: exec})

	resp, body := doJSON(t, "GET", srv.URL+"/v1/experiments", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiments: %d", resp.StatusCode)
	}
	var listing struct {
		Experiments []ExperimentInfo `json:"experiments"`
	}
	if err := json.Unmarshal(body, &listing); err != nil || len(listing.Experiments) < 20 {
		t.Fatalf("listing %v: %v", len(listing.Experiments), err)
	}
	found := false
	for _, e := range listing.Experiments {
		if e.ID == "table1" && e.Title != "" {
			found = true
		}
	}
	if !found {
		t.Error("table1 missing from listing")
	}

	resp, body = doJSON(t, "GET", srv.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{"# TYPE service_jobs_submitted counter", "service_jobs_running"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, truncate(text, 400))
		}
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// TestHTTPDrainRefusesSubmits: once a drain begins, the API answers
// 503 to new submissions.
func TestHTTPDrainRefusesSubmits(t *testing.T) {
	release := make(chan struct{})
	close(release)
	exec, _ := blockingExec(nil, release)
	srv, m := httpFixture(t, Config{execute: exec})
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, body := doJSON(t, "POST", srv.URL+"/v1/jobs", Request{Experiments: []string{"fig5"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: %d %s, want 503", resp.StatusCode, body)
	}
}
