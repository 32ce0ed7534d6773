package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"obm/internal/engine"
	"obm/internal/obs"
)

// Handler exposes a Manager over HTTP/JSON — the daemon's API surface:
//
//	POST   /v1/jobs           submit a Request, returns 202 + Status
//	GET    /v1/jobs/{id}      Status + progress events (?cursor=N)
//	GET    /v1/jobs/{id}/result  the obmsim.run/v1 envelope
//	DELETE /v1/jobs/{id}      cancel, returns the resulting Status
//	GET    /v1/experiments    the experiment registry listing
//	GET    /metrics           obs.Default()'s snapshot, Prometheus text format
//
// Error mapping: ErrBadRequest → 400, ErrNotFound → 404, ErrQueueFull
// → 429, ErrDraining → 503, ErrNotFinished → 409, failed/cancelled
// result fetch → 500/410. Error bodies are {"error": "..."} JSON.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		req, err := decodeSubmit(r.Body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		st, err := m.Submit(req)
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		st, err := m.Status(id)
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		var cursor uint64
		if c := r.URL.Query().Get("cursor"); c != "" {
			v, perr := strconv.ParseUint(c, 10, 64)
			if perr != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad cursor %q: %w", c, perr))
				return
			}
			cursor = v
		}
		evs, next, err := m.Events(id, cursor)
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, statusResponse{Status: st, Events: wireEvents(evs), NextCursor: next})
	})

	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		env, err := m.Result(id)
		if err != nil {
			code := errStatus(err)
			if code == http.StatusInternalServerError {
				// Distinguish "the job was cancelled" from "the job failed".
				if st, serr := m.Status(id); serr == nil && st.State == StateCancelled {
					code = http.StatusGone
				}
			}
			writeError(w, code, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(env)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Experiments []ExperimentInfo `json:"experiments"`
		}{Experiments()})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w, obs.Default().Snapshot())
	})

	return mux
}

// statusResponse is GET /v1/jobs/{id}'s body: the status plus the
// progress events after the request's cursor ("progress", so the
// status's own "events" journal-length field keeps its name) and the
// cursor to poll from next.
type statusResponse struct {
	Status
	Events     []wireEvent `json:"progress"`
	NextCursor uint64      `json:"next_cursor"`
}

// wireEvent is engine.Progress in stable snake_case wire form.
type wireEvent struct {
	Seq       uint64  `json:"seq"`
	Stage     string  `json:"stage"`
	Done      int     `json:"done"`
	Total     int     `json:"total,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Skipped   bool    `json:"skipped,omitempty"`
	Final     bool    `json:"final,omitempty"`
}

func wireEvents(evs []engine.Progress) []wireEvent {
	out := make([]wireEvent, len(evs))
	for i, p := range evs {
		out[i] = wireEvent{
			Seq:       p.Seq,
			Stage:     p.Stage,
			Done:      p.Done,
			Total:     p.Total,
			ElapsedMS: float64(p.Elapsed) / float64(time.Millisecond),
			Skipped:   p.Skipped,
			Final:     p.Final,
		}
	}
	return out
}

// errStatus maps the service's typed errors onto HTTP status codes.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFinished):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// decodeSubmit reads a POST /v1/jobs body into a Request. It rejects
// malformed JSON, and per-job cache knobs with ErrBadRequest: the
// artifact disk tier is attached once at daemon startup (-cachedir),
// and accepting a per-job override would record a tier in the envelope
// that the process never used.
func decodeSubmit(body io.Reader) (Request, error) {
	var req Request
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return Request{}, fmt.Errorf("decoding request body: %w", err)
	}
	if req.CacheDir != "" || req.CacheSize != 0 {
		return Request{}, fmt.Errorf("%w: cachedir/cachesize are configured at daemon startup, not per job", ErrBadRequest)
	}
	return req, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{err.Error()})
}
