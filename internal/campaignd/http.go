package campaignd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/soft-testing/soft/internal/obs"
)

// apiPrefix roots every route; bump it with any wire-incompatible change.
const apiPrefix = "/api/v1"

// Handler returns the service's HTTP API:
//
//	POST   /api/v1/jobs             submit a JobSpec, 202 + the Job record
//	GET    /api/v1/jobs             list jobs (submission order)
//	GET    /api/v1/jobs/<id>        one job record
//	DELETE /api/v1/jobs/<id>        cancel a queued or running job
//	GET    /api/v1/jobs/<id>/events SSE progress stream until terminal
//	GET    /api/v1/jobs/<id>/report canonical report bytes (done jobs)
//	GET    /api/v1/jobs/<id>/metrics per-job timing snapshot (JSON)
//	GET    /api/v1/jobs/<id>/trace  merged Chrome trace JSON (traced jobs;
//	                                ?format=segments for the raw bundle)
//	GET    /api/v1/status           daemon counters
//	GET    /metrics                 Prometheus text exposition
//
// Routing is written against go1.21 ServeMux semantics (no method or
// wildcard patterns).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(apiPrefix+"/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, http.StatusOK, s.Status())
	})
	mux.HandleFunc(apiPrefix+"/jobs", s.handleJobs)
	mux.HandleFunc(apiPrefix+"/jobs/", s.handleJob)
	mux.HandleFunc("/metrics", handleMetrics)
	return mux
}

// handleMetrics serves the process-global registry as Prometheus text —
// solver, store, fleet, and campaignd metrics alike, since they all share
// the default registry.
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var spec JobSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, "bad job spec: %v", err)
			return
		}
		// A traceparent-style header propagates the caller's trace
		// context without touching the body; an explicit spec trace_id
		// wins over it.
		if spec.TraceID == "" {
			for _, h := range []string{"Soft-Traceparent", "Traceparent"} {
				v := r.Header.Get(h)
				if v == "" {
					continue
				}
				id, err := obs.ParseTraceparent(v)
				if err != nil {
					httpError(w, http.StatusBadRequest, "bad %s header: %v", h, err)
					return
				}
				spec.TraceID = obs.FormatTraceID(id)
				spec.Trace = true
				break
			}
		}
		j, err := s.Submit(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusAccepted, j)
	case http.MethodGet:
		jobs := s.Jobs()
		if jobs == nil {
			jobs = []*Job{}
		}
		writeJSON(w, http.StatusOK, jobs)
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, apiPrefix+"/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if _, ok := seqOf(id); !ok {
		httpError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if r.Method == http.MethodDelete && sub == "" {
		j, err := s.Cancel(id)
		switch {
		case errors.Is(err, ErrUnknownJob):
			httpError(w, http.StatusNotFound, "no such job %q", id)
		case errors.Is(err, ErrJobTerminal):
			httpError(w, http.StatusConflict, "%v", err)
		case err != nil:
			httpError(w, http.StatusInternalServerError, "%v", err)
		default:
			writeJSON(w, http.StatusOK, j)
		}
		return
	}
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only (DELETE on the job itself)")
		return
	}
	switch sub {
	case "":
		j, ok := s.Job(id)
		if !ok {
			httpError(w, http.StatusNotFound, "no such job %q", id)
			return
		}
		writeJSON(w, http.StatusOK, j)
	case "events":
		s.handleEvents(w, r, id)
	case "metrics":
		j, ok := s.Job(id)
		if !ok {
			httpError(w, http.StatusNotFound, "no such job %q", id)
			return
		}
		writeJSON(w, http.StatusOK, metricsOf(j, time.Now()))
	case "report":
		data, ok, err := s.Report(id)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if !ok {
			j, known := s.Job(id)
			if !known {
				httpError(w, http.StatusNotFound, "no such job %q", id)
			} else {
				httpError(w, http.StatusConflict, "job %s is %s, not done", id, j.State)
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(data)
	case "trace":
		data, ok, err := s.Trace(id)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if !ok {
			j, known := s.Job(id)
			switch {
			case !known:
				httpError(w, http.StatusNotFound, "no such job %q", id)
			case !j.Spec.Trace:
				httpError(w, http.StatusConflict, "job %s was not traced", id)
			default:
				httpError(w, http.StatusConflict,
					"job %s is %s; its trace has not been journaled yet", id, j.State)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Query().Get("format") == "segments" {
			w.Write(data)
			return
		}
		b, err := obs.ParseBundle(data)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		b.WriteChromeJSON(w)
	default:
		httpError(w, http.StatusNotFound, "no such endpoint")
	}
}

// handleEvents streams a job's progress as server-sent events. The first
// event is always a snapshot of the current state; the stream ends after
// the terminal event (or immediately after the snapshot when the job is
// already terminal), with a final re-snapshot so a dropped terminal event
// can never strand the client.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, id string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	snapshot, ch, cancel, known := s.subscribe(id)
	if !known {
		httpError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	send := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	if !send(snapshot) || ch == nil {
		if cancel != nil {
			cancel()
		}
		return
	}
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				// The hub closed the stream (terminal transition or
				// shutdown): emit the job's final state and stop.
				if j, live := s.Job(id); live {
					s.mu.Lock()
					final := eventOfLocked(j)
					s.mu.Unlock()
					send(final)
				}
				return
			}
			if !send(ev) {
				return
			}
			if ev.State.terminal() {
				return
			}
		}
	}
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
