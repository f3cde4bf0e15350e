package service

import (
	"repro/internal/obs"
)

// engineMetrics is the engine's instrument set, resolved once from the
// registry at construction. Every instrument is nil-safe through obs, so an
// engine built without Options.Metrics records nothing at zero cost.
//
// Cardinality rules (internal/obs/DESIGN.md): tenant is the only free
// label; job type and terminal state are closed enums; job IDs never become
// labels — per-job detail goes to traces and logs.
type engineMetrics struct {
	submitted *obs.CounterVec   // tenant, type
	started   *obs.CounterVec   // tenant, type
	finished  *obs.CounterVec   // tenant, type, state
	canceled  *obs.CounterVec   // tenant
	duration  *obs.HistogramVec // tenant, type

	cacheHits      *obs.CounterVec // tenant
	cacheMisses    *obs.CounterVec // tenant
	cacheEvictions *obs.CounterVec // tenant

	plannerEvaluated *obs.CounterVec // tenant
	plannerProbed    *obs.CounterVec // tenant
	plannerWarm      *obs.CounterVec // tenant
	plannerSkipped   *obs.CounterVec // tenant, reason
	plannerFallbacks *obs.CounterVec // tenant

	shed *obs.CounterVec // tenant, scope

	persistErrors *obs.CounterVec // op

	gcRuns      *obs.CounterVec // (no labels)
	gcReclaimed *obs.CounterVec // (no labels)
	gcBytes     *obs.CounterVec // (no labels)
}

// newEngineMetrics registers the engine's metric families on r (nil r is a
// no-op set) and wires the scrape-time gauges that read live engine state.
func newEngineMetrics(r *obs.Registry, e *Engine) *engineMetrics {
	m := &engineMetrics{
		submitted: r.Counter("jobs_submitted_total",
			"Jobs accepted by Submit, including cache hits.", "tenant", "type"),
		started: r.Counter("jobs_started_total",
			"Jobs a worker began executing.", "tenant", "type"),
		finished: r.Counter("jobs_finished_total",
			"Jobs reaching a terminal state.", "tenant", "type", "state"),
		canceled: r.Counter("jobs_canceled_total",
			"Cancellations accepted by Cancel.", "tenant"),
		duration: r.Histogram("job_duration_seconds",
			"Job wall time from worker start to terminal state.", nil, "tenant", "type"),
		cacheHits: r.Counter("cache_hits_total",
			"Result-cache hits at Submit.", "tenant"),
		cacheMisses: r.Counter("cache_misses_total",
			"Result-cache misses at Submit.", "tenant"),
		cacheEvictions: r.Counter("cache_evictions_total",
			"Result-cache evictions (capacity or tenant share).", "tenant"),
		plannerEvaluated: r.Counter("planner_levels_evaluated_total",
			"Sweep levels actually computed by fred-sweep jobs.", "tenant"),
		plannerProbed: r.Counter("planner_levels_probed_total",
			"Utility-only probes (anonymize and C_DM, no fusion attack) checking adaptive sweeps' Tu scans.", "tenant"),
		plannerWarm: r.Counter("planner_warmstart_levels_total",
			"Sweep levels seeded from the cross-job level index instead of recomputed.", "tenant"),
		plannerSkipped: r.Counter("planner_levels_skipped_total",
			"Sweep levels the planner did not evaluate (reason: bisection — above the Tu crossing, checked at bisection's probe points; deadline; infeasible).", "tenant", "reason"),
		plannerFallbacks: r.Counter("planner_fallbacks_total",
			"Adaptive sweeps that fell back to the exhaustive walk on a detected non-monotone utility series.", "tenant"),
		shed: r.Counter("admission_shed_total",
			"Submissions refused by admission control (scope: tenant, global).", "tenant", "scope"),
		persistErrors: r.Counter("persist_errors_total",
			"Failed persistence operations (op: hash_table, put_blob, append_wal, sync_wal), each logged at Warn with its job.", "op"),
		gcRuns: r.Counter("blob_gc_runs_total",
			"Blob garbage-collection passes completed (dry runs included)."),
		gcReclaimed: r.Counter("blob_gc_reclaimed_total",
			"Unreferenced result blobs deleted by GC."),
		gcBytes: r.Counter("blob_gc_bytes_reclaimed_total",
			"Bytes of unreferenced result blobs deleted by GC."),
	}
	if r != nil && e != nil {
		r.GaugeFunc("queue_depth",
			"Jobs waiting in the pending queue.", func() float64 {
				return float64(len(e.queue))
			})
		r.GaugeFunc("workers_busy",
			"Workers currently executing a job.", func() float64 {
				return float64(e.busyWorkers.Load())
			})
		r.GaugeFunc("workers_total",
			"Size of the job worker pool.", func() float64 {
				return float64(e.opts.Workers)
			})
	}
	return m
}
