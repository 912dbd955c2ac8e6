package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"

	"orderlight/internal/olerrors"
)

// Version identifies the wire protocol the daemon speaks. Bump it when
// the request or result schema changes incompatibly.
const Version = "v1"

// VersionInfo is the /v1/version payload.
type VersionInfo struct {
	API       string `json:"api"`
	GoVersion string `json:"go_version"`
}

// Drainer is implemented by services that support graceful shutdown;
// the daemon type-asserts it on SIGTERM and /healthz reports its load.
type Drainer interface {
	Drain(ctx context.Context) error
	Health() HealthInfo
}

// NewHandler mounts the Service on an http.ServeMux speaking the
// /v1 JSON protocol:
//
//	POST   /v1/jobs             submit (202 + status)
//	GET    /v1/jobs/{id}        status
//	GET    /v1/jobs/{id}/result result (409 until terminal)
//	DELETE /v1/jobs/{id}        cancel (202 + status)
//	GET    /v1/jobs/{id}/events lifecycle stream (server-sent events)
//	GET    /healthz             liveness + queue load
//	GET    /v1/version          protocol + toolchain versions
//
// Admission failures map to 429 (queue full, tenant quota) and 503
// (draining), both with Retry-After; bad requests to 400; unknown jobs
// to 404; premature result fetches to 409. Every error body is
// {"error": {"code", "message"}} with the code from the shared wire
// taxonomy, so clients rebuild errors.Is-compatible errors.
func NewHandler(svc Service) http.Handler {
	h := &handler{svc: svc}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", h.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", h.status)
	mux.HandleFunc("GET /v1/jobs/{id}/result", h.result)
	mux.HandleFunc("DELETE /v1/jobs/{id}", h.cancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", h.events)
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /v1/version", h.version)
	return mux
}

type handler struct {
	svc Service
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error *JobError `json:"error"`
}

// writeError maps err to its HTTP status and JSON envelope.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQuotaExceeded):
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownJob):
		status = http.StatusNotFound
	case errors.Is(err, ErrNotFinished):
		status = http.StatusConflict
	case errors.Is(err, olerrors.ErrUnknownKernel),
		errors.Is(err, olerrors.ErrUnknownExperiment),
		errors.Is(err, olerrors.ErrInvalidSpec):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errorBody{Error: WireError(err)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("serve: %w: malformed job request: %v", olerrors.ErrInvalidSpec, err))
		return
	}
	id, err := h.svc.Submit(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	st, err := h.svc.Status(r.Context(), id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (h *handler) status(w http.ResponseWriter, r *http.Request) {
	st, err := h.svc.Status(r.Context(), JobID(r.PathValue("id")))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (h *handler) result(w http.ResponseWriter, r *http.Request) {
	res, err := h.svc.Result(r.Context(), JobID(r.PathValue("id")))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (h *handler) cancel(w http.ResponseWriter, r *http.Request) {
	id := JobID(r.PathValue("id"))
	if err := h.svc.Cancel(r.Context(), id); err != nil {
		writeError(w, err)
		return
	}
	st, err := h.svc.Status(r.Context(), id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// events streams the job lifecycle as server-sent events: each watch
// event is one "data: <json>" frame. The stream ends after the
// terminal state event (or when the client goes away, which
// unsubscribes the watcher).
func (h *handler) events(w http.ResponseWriter, r *http.Request) {
	events, err := h.svc.Watch(r.Context(), JobID(r.PathValue("id")))
	if err != nil {
		writeError(w, err)
		return
	}
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	if fl != nil {
		fl.Flush()
	}
	enc := json.NewEncoder(w)
	for ev := range events {
		if _, err := w.Write([]byte("data: ")); err != nil {
			return
		}
		if err := enc.Encode(ev); err != nil { // Encode appends the \n
			return
		}
		if _, err := w.Write([]byte("\n")); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
	}
}

func (h *handler) healthz(w http.ResponseWriter, _ *http.Request) {
	if d, ok := h.svc.(Drainer); ok {
		writeJSON(w, http.StatusOK, d.Health())
		return
	}
	writeJSON(w, http.StatusOK, HealthInfo{Status: "ok"})
}

func (h *handler) version(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, VersionInfo{API: Version, GoVersion: runtime.Version()})
}
