// Package httpapi exposes the service subsystem over REST: CSV table upload
// and download, asynchronous job submission and polling, health. Handlers
// speak JSON (errors included) except for the CSV table payloads, which use
// the dataset two-header layout so the CLIs and the API exchange identical
// files.
//
//	POST   /v1/tables            upload a table (CSV body, ?name= label)
//	GET    /v1/tables            list tables
//	GET    /v1/tables/{id}       table metadata
//	GET    /v1/tables/{id}/csv   download a table
//	DELETE /v1/tables/{id}       drop a table
//	POST   /v1/jobs              submit a job (JSON service.Spec)
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         poll job status (includes per-level partials)
//	GET    /v1/jobs/{id}/result  download the result (CSV; JSON for assess)
//	GET    /v1/jobs/{id}/events  stream per-level results live (SSE; NDJSON
//	                             with Accept: application/x-ndjson). Resumable:
//	                             pass Last-Event-ID or ?after=<seq> to skip
//	                             already-delivered events after a reconnect
//	POST   /v1/jobs/{id}/cancel  cancel a pending or running job
//	DELETE /v1/jobs/{id}         purge a terminal job (409 while running)
//	GET    /v1/jobs/{id}/trace   per-job trace spans (job.run, sweep.level,
//	                             planner.plan on every sweep, and for
//	                             adaptive sweeps planner.warmstart,
//	                             planner.skip, planner.fallback)
//
// fred-sweep specs accept the adaptive planner fields alongside min_k/max_k:
// "k_set" (explicit level set), "stride" (every Nth level), "budget_ms"
// (wall-clock budget — the job stops at the deadline with status partial and
// the best release over the levels it managed), and "adaptive": true (let
// the planner scan a plain range up to the Tu crossing and skip the rest,
// the skip checked at bisection's probe points). Adaptive jobs' event
// streams deliver warm "level" events first — tagged "source": "warm" when
// seeded from the cross-job level index — then computed ones in ascending
// k (a budgeted sweep without thresholds evaluates endpoints, then
// widest-gap midpoints), plus "skip" events naming the level ranges the
// planner did not evaluate and why (bisection, deadline, infeasible). The
// final decision is bit-identical to the exhaustive sweep's.
//
//	GET    /v1/healthz           liveness probe + ops snapshot (never
//	                             authenticated)
//	GET    /v1/readyz            readiness probe: 503 until the engine's
//	                             worker pool is up — i.e. for the whole WAL
//	                             replay window (never authenticated)
//	GET    /metrics              Prometheus text exposition (never
//	                             authenticated, like the probes: scrapers
//	                             hold no tenant key and the exposition is
//	                             operational, not tenant data)
//
// The API is multi-tenant: with WithAuth configured, every request (except
// healthz) must present an API key (Authorization: Bearer <key>, or
// X-API-Key) and runs inside the key's tenant namespace — tables and jobs
// of other tenants are invisible (foreign IDs are 404, never 403), and
// per-tenant quotas answer 429 when exceeded. Without auth, everything
// runs as the default tenant, preserving the single-namespace behavior.
//
// The engine also evicts the oldest finished jobs beyond its retention
// limit (service.Options.MaxFinishedJobs), so the job log stays bounded
// even without explicit DELETEs. When the service runs on the durable
// storage plane (served -data-dir), tables, finished jobs and sweep
// checkpoints additionally survive restarts, and event sequence numbers
// stay valid across them.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/service"
)

// maxUploadBytes bounds a table upload (64 MiB of CSV).
const maxUploadBytes = 64 << 20

// Server routes the v1 API onto a store and an engine.
type Server struct {
	store  *service.Store
	engine *service.Engine
	logger *slog.Logger
	// auth is swappable at runtime (SetAuth, the SIGHUP keys-file reload);
	// a nil pointer leaves the server open on the default tenant.
	auth     atomic.Pointer[Auth]
	mux      *http.ServeMux
	registry *obs.Registry
	metrics  *httpMetrics
	tracer   *obs.Tracer
	started  time.Time
}

// Option configures optional server behavior.
type Option func(*Server)

// WithAuth enables API-key authentication: every request resolves to the
// presenting key's tenant. A nil auth leaves the server open on the
// default tenant.
func WithAuth(a *Auth) Option {
	return func(s *Server) { s.auth.Store(a) }
}

// SetAuth atomically replaces the authenticator — the SIGHUP keys-file
// reload path. In-flight requests finish under whichever authenticator they
// loaded; new requests see the new key set (and fresh rate-limit buckets)
// immediately. Swapping in nil disables authentication, so reload paths
// should keep the old Auth on a parse error instead.
func (s *Server) SetAuth(a *Auth) { s.auth.Store(a) }

// WithMetrics serves r at GET /metrics and records the HTTP request metrics
// into it. Share the same registry with the engine and diskstore so one
// scrape covers the whole service. Without this option the server uses a
// private registry — /metrics always works, it just only carries the HTTP
// families.
func WithMetrics(r *obs.Registry) Option {
	return func(s *Server) { s.registry = r }
}

// WithTracer serves t's spans at GET /v1/jobs/{id}/trace. Wire the same
// tracer into the engine (service.Options.Tracer) or the endpoint will
// always answer with an empty span list.
func WithTracer(t *obs.Tracer) Option {
	return func(s *Server) { s.tracer = t }
}

// New builds the server. A nil logger discards request logging.
func New(store *service.Store, engine *service.Engine, logger *slog.Logger, opts ...Option) *Server {
	s := &Server{store: store, engine: engine, logger: logger, mux: http.NewServeMux(), started: time.Now()}
	for _, opt := range opts {
		opt(s)
	}
	if s.logger == nil {
		s.logger = obs.NopLogger()
	}
	if s.registry == nil {
		s.registry = obs.NewRegistry()
	}
	s.metrics = newHTTPMetrics(s.registry)
	s.mux.Handle("GET /metrics", s.registry.Handler())
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("POST /v1/tables", s.handleTableUpload)
	s.mux.HandleFunc("GET /v1/tables", s.handleTableList)
	s.mux.HandleFunc("GET /v1/tables/{id}", s.handleTableGet)
	s.mux.HandleFunc("GET /v1/tables/{id}/csv", s.handleTableCSV)
	s.mux.HandleFunc("DELETE /v1/tables/{id}", s.handleTableDelete)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	return s
}

// ServeHTTP implements http.Handler with the observability and
// authentication middleware applied — auth runs inside withObs, so refused
// requests are counted and logged too.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.withObs(s.withAuth(s.mux)).ServeHTTP(w, r)
}

// --- handlers ---------------------------------------------------------------

// handleHealthz is the liveness probe: always 200 while the process serves,
// with an operational snapshot in the body. Readiness (is the engine
// accepting work yet?) is readyz's question, not this one's.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	stats := s.engine.Stats()
	body := map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(time.Since(s.started).Seconds()),
		"durable":        s.store.Durable(),
		"wal_seq":        stats.WALSeq,
		"jobs_finished":  stats.JobsFinished,
		"jobs_live":      stats.JobsLive,
		"jobs_pending":   stats.JobsPending,
		"jobs_shed":      stats.JobsShed,
		"tenants":        s.tenantCount(),
	}
	// Jobs that could not be resubmitted during recovery are degraded state
	// an operator must see: the process is alive (still 200) but some work
	// recorded as running before the restart is NOT running now.
	if len(stats.RecoveryErrors) > 0 {
		body["status"] = "degraded"
		body["recovery_errors"] = stats.RecoveryErrors
	}
	writeJSON(w, http.StatusOK, body)
}

// tenantCount reports how many tenants this deployment serves: the distinct
// tenants in the key file, or one (the default tenant) on an open server.
func (s *Server) tenantCount() int {
	auth := s.auth.Load()
	if auth == nil {
		return 1
	}
	seen := make(map[string]struct{})
	for _, k := range auth.keys {
		seen[k.tenant] = struct{}{}
	}
	return len(seen)
}

// handleReadyz is the readiness probe: 503 until Engine.Start has launched
// the worker pool. Recovery (the WAL replay) runs before Start, so a
// restarting durable node reports unready for the whole replay window and a
// load balancer keeps traffic away until it can actually run jobs.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.engine.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "recovering"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleJobTrace returns a job's recorded trace spans (one job.run per
// execution, one sweep.level per completed level). The job lookup runs
// first: foreign or unknown job IDs are 404 exactly like every other job
// route, so the trace endpoint leaks nothing across tenants.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.engine.Job(tenantFrom(r), id); err != nil {
		writeServiceError(w, err)
		return
	}
	spans := s.tracer.Spans(id)
	if spans == nil {
		spans = []obs.Span{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": id, "spans": spans})
}

func (s *Server) handleTableUpload(w http.ResponseWriter, r *http.Request) {
	t, err := dataset.ReadCSV(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("table upload exceeds the %d byte limit", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parse csv: %v", err))
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "table"
	}
	info, err := s.store.Put(tenantFrom(r), name, t)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleTableList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tables": s.store.List(tenantFrom(r))})
}

func (s *Server) handleTableGet(w http.ResponseWriter, r *http.Request) {
	_, info, err := s.store.Get(tenantFrom(r), r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleTableCSV(w http.ResponseWriter, r *http.Request) {
	t, info, err := s.store.Get(tenantFrom(r), r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeCSV(w, info.ID, t)
}

func (s *Server) handleTableDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.store.Delete(tenantFrom(r), r.PathValue("id")); err != nil {
		writeServiceError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec service.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parse job spec: %v", err))
		return
	}
	st, err := s.engine.Submit(tenantFrom(r), spec)
	if err != nil {
		var ov *service.OverloadError
		switch {
		case errors.As(err, &ov):
			writeServiceError(w, err)
		case errors.Is(err, service.ErrQueueFull):
			// Untyped queue-full (no admission metadata): still shed as 429
			// so clients use one retry path for all backpressure.
			setRetryAfter(w, time.Second)
			writeError(w, http.StatusTooManyRequests, err.Error())
		default:
			writeServiceError(w, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.engine.Jobs(tenantFrom(r))})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.engine.Job(tenantFrom(r), r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, err := s.engine.Result(tenantFrom(r), id)
	if err != nil {
		switch {
		case errors.Is(err, service.ErrNotFinished):
			writeError(w, http.StatusConflict, err.Error())
		default:
			writeServiceError(w, err)
		}
		return
	}
	// Assess jobs report numbers, not a release; everything else downloads
	// the result table as CSV.
	if res.Assessment != nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"records":         res.Assessment.Records,
			"breach10":        res.Assessment.Breach10,
			"breach20":        res.Assessment.Breach20,
			"class3":          res.Assessment.Class3,
			"baseline_class3": res.Assessment.BaselineClass3,
			"rank_exposure":   res.Assessment.Rank,
		})
		return
	}
	if res.Table == nil {
		writeError(w, http.StatusInternalServerError, "job finished without a result table")
		return
	}
	writeCSV(w, id, res.Table)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.engine.Cancel(tenantFrom(r), r.PathValue("id")); err != nil {
		if errors.Is(err, service.ErrAlreadyFinished) {
			writeError(w, http.StatusConflict, err.Error())
			return
		}
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "canceling"})
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.engine.Delete(tenantFrom(r), r.PathValue("id")); err != nil {
		if errors.Is(err, service.ErrNotFinished) {
			writeError(w, http.StatusConflict, err.Error())
			return
		}
		writeServiceError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- response helpers -------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do once headers are out
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeServiceError maps service-layer errors onto status codes: unknown
// (or foreign-tenant) IDs are 404; exceeded tenant quotas and shed
// (overloaded) submissions 429 with a Retry-After; everything else a
// 400-class client error.
func writeServiceError(w http.ResponseWriter, err error) {
	var nf *service.ErrNotFound
	if errors.As(err, &nf) {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	var ov *service.OverloadError
	if errors.As(err, &ov) {
		setRetryAfter(w, ov.RetryAfter)
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	var qe *service.QuotaError
	if errors.As(err, &qe) {
		// Quota headroom frees when a job finishes or a table is dropped —
		// not on a predictable schedule. One second is the poll floor.
		setRetryAfter(w, time.Second)
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}

// setRetryAfter stamps a Retry-After header: whole seconds, rounded up,
// never below 1 — the smallest honest delay HTTP's delta-seconds form can
// express.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

func writeCSV(w http.ResponseWriter, name string, t *dataset.Table) {
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", name+".csv"))
	if err := dataset.WriteCSV(w, t); err != nil {
		// Headers are gone; all we can do is truncate the stream.
		return
	}
}
