package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"obm/internal/service"
)

// fakeDaemon answers the job API: submits get code (202 admits the
// job), and admitted jobs report state when polled.
func fakeDaemon(t *testing.T, code int, state service.State) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	now := time.Now()
	status := func(st service.State) service.Status {
		s := service.Status{ID: "job-1", State: st, Created: now}
		if st.Terminal() {
			s.Started, s.Finished = &now, &now
		}
		return s
	}
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if code != http.StatusAccepted {
			http.Error(w, `{"error":"no"}`, code)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(status(service.StateQueued))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(status(state))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}\n"))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestRefusalsAndErrorsCountAsFailures(t *testing.T) {
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()
	for _, c := range []struct {
		name string
		base string
		want failKind
	}{
		{"done", fakeDaemon(t, http.StatusAccepted, service.StateDone).URL, failNone},
		{"queue full", fakeDaemon(t, http.StatusTooManyRequests, "").URL, failRefused},
		{"draining", fakeDaemon(t, http.StatusServiceUnavailable, "").URL, failRefused},
		{"bad request", fakeDaemon(t, http.StatusBadRequest, "").URL, failJob},
		{"job failed", fakeDaemon(t, http.StatusAccepted, service.StateFailed).URL, failJob},
		{"no daemon", closed.URL, failTransport},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl := newClient(c.base)
			defer cl.close()
			o := cl.runJob(context.Background(), service.Request{Experiments: []string{"fig4"}}, nil, 0)
			if o.fail != c.want {
				t.Fatalf("outcome %v (%v), want %v", o.fail, o.err, c.want)
			}
			var tl tally
			tl.job(o)
			wantFailed := 0
			if c.want != failNone {
				wantFailed = 1
			}
			if tl.attempted != 1 || tl.failures() != wantFailed {
				t.Fatalf("tally attempted %d failed %d, want 1 and %d", tl.attempted, tl.failures(), wantFailed)
			}
		})
	}
}

func TestFailedChecksCount(t *testing.T) {
	var tl tally
	tl.job(jobOutcome{})
	tl.checkFailed("envelope %s changed", "x")
	if tl.failures() != 1 || tl.attempted != 1 {
		t.Fatalf("failures %d attempted %d, want 1 and 1", tl.failures(), tl.attempted)
	}
}
