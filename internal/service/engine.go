package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/microagg"
	"repro/internal/mondrian"
	"repro/internal/obs"
	"repro/internal/risk"
)

// Options configures an Engine. Zero values pick sensible defaults.
type Options struct {
	// Workers is the size of the job worker pool (default: NumCPU).
	Workers int
	// SweepWorkers bounds the intra-job concurrency of a fred-sweep's
	// core.SweepStream executor (default: Workers).
	SweepWorkers int
	// QueueDepth bounds the pending-job queue; submissions beyond it are
	// shed with an OverloadError (which errors.Is-matches ErrQueueFull)
	// rather than queued unboundedly (default: 256).
	QueueDepth int
	// MaxPendingPerTenant bounds one tenant's share of the pending queue:
	// submissions beyond it are shed with a tenant-scoped OverloadError even
	// while the global queue has room, so a single tenant's storm cannot
	// starve everyone else (default: 0 = no per-tenant bound).
	MaxPendingPerTenant int
	// MaxJobEvents bounds the in-memory replay buffer kept per terminal job:
	// once a job finishes and its result is durably recorded, the event log
	// is truncated to this many trailing events. Subscribers resuming from a
	// cursor inside the retained tail replay as before; earlier cursors fall
	// back to a synthesized replay from the result, exactly like cache hits
	// (default: 256; negative keeps every event).
	MaxJobEvents int
	// CacheSize is the LRU result cache capacity in entries (default: 64;
	// negative disables caching).
	CacheSize int
	// LevelIndexSize is the cross-job warm-start index capacity in tables
	// (default: 32; negative disables warm-starting). Each tracked table
	// holds the per-level sweep numbers previous fred-sweeps computed, so
	// overlapping re-sweeps only compute the gap.
	LevelIndexSize int
	// MaxFinishedJobs bounds the job log: once more than this many jobs are
	// in a terminal state, the oldest-finished are evicted from the log
	// (default: 512; negative keeps every job forever).
	MaxFinishedJobs int
	// JobLog is the durable write-ahead log behind the job engine: every
	// submission, per-level sweep checkpoint and terminal status is appended
	// to it, and Engine.Recover replays it after a restart. Nil keeps the
	// pre-durability behavior (an ephemeral in-memory log).
	JobLog JobBackend
	// Quotas bounds each tenant's footprint (tables, concurrent jobs,
	// result-cache share). NewEngine installs it on the store as well, so
	// there is a single configuration point. Nil leaves every tenant
	// unlimited.
	Quotas *Quotas
	// Metrics receives the engine's job/queue/cache instrumentation
	// (jobs_*_total, job_duration_seconds, queue_depth, workers_*, cache_*).
	// Nil records nothing.
	Metrics *obs.Registry
	// Tracer receives per-job spans: one "job.run" per executed job and one
	// "sweep.level" per completed sweep level. Nil records nothing.
	Tracer *obs.Tracer
	// Logger receives structured job-lifecycle lines (submit, finish,
	// cancel). Records logged with a job context carry tenant= and job=
	// attributes. Nil discards.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.JobLog == nil {
		o.JobLog = NewMemJobBackend()
	}
	if o.SweepWorkers <= 0 {
		o.SweepWorkers = o.Workers
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.CacheSize == 0 {
		o.CacheSize = 64
	}
	if o.LevelIndexSize == 0 {
		o.LevelIndexSize = 32
	}
	if o.MaxFinishedJobs == 0 {
		o.MaxFinishedJobs = 512
	}
	if o.MaxJobEvents == 0 {
		o.MaxJobEvents = 256
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	return o
}

// ErrQueueFull is returned by Submit when the pending queue is at capacity.
var ErrQueueFull = errors.New("service: job queue is full")

// ErrNotFinished is returned by Result for a job without a result yet.
var ErrNotFinished = errors.New("service: job has not finished")

// ErrAlreadyFinished is returned by Cancel for a job in a terminal state.
var ErrAlreadyFinished = errors.New("service: job already finished")

// Engine runs jobs asynchronously on a bounded worker pool. Submit enqueues
// and returns immediately; callers poll Job, block on Wait (which parks on
// the job's done channel — no polling), or subscribe to Stream for
// incremental per-level events, then fetch the payload with Result.
// Identical submissions (same table contents, same spec) are served from an
// LRU cache without re-running the sweep.
type Engine struct {
	store  *Store
	opts   Options
	cache  *resultCache
	levels *levelIndex

	baseCtx   context.Context
	cancelAll context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup

	// walMu serializes WAL appends and guards eventSeq, so sequence numbers
	// are monotonic AND appear in the log in order.
	walMu    sync.Mutex
	eventSeq uint64
	// blobMu orders result-blob writes against blob GC: persistTerminal
	// roots a blob's hash and writes it under the read lock, and GCBlobs
	// reads the job roots, lists and deletes under the write lock, so a pass
	// never reclaims a blob a finishing job has rooted.
	blobMu sync.RWMutex

	mu       sync.RWMutex
	seq      int
	jobs     map[string]*job
	finished []*job // terminal jobs in finish order, for retention eviction
	closed   bool
	// pending counts enqueued-not-yet-popped jobs per tenant; pendingTotal is
	// their sum. Both guarded by mu and maintained by enqueuedLocked/dequeued
	// (admission.go).
	pending      map[string]int
	pendingTotal int
	// recoveryErrs records jobs Recover re-submitted that immediately failed
	// (missing table, queue overflow) so healthz can surface them instead of
	// burying them in logs. Guarded by mu.
	recoveryErrs []string

	metrics *engineMetrics
	tracer  *obs.Tracer
	logger  *slog.Logger
	// busyWorkers counts workers currently executing a job (workers_busy).
	busyWorkers atomic.Int64
	// ready flips true once Start launches the pool; false during the
	// Recover replay window. Served by /v1/readyz.
	ready atomic.Bool
	// doneJobs counts terminal transitions since process start, cumulative
	// across retention eviction and Delete (unlike len(finished)).
	doneJobs atomic.Uint64
	// jobsShed counts submissions refused by admission control.
	jobsShed atomic.Uint64
	// execCount/execNanos accumulate executed-job wall time, feeding the
	// Retry-After estimate on shed submissions.
	execCount atomic.Int64
	execNanos atomic.Int64
}

// job is the engine-internal job record. status is guarded by mu; the input
// tables are captured at submit time so a concurrent Store.Delete cannot
// strand a queued job.
type job struct {
	mu     sync.Mutex
	status Status
	seq    int
	spec   Spec
	p, aux *dataset.Table
	key    string
	// levelKey addresses the cross-job warm-start index entry for the job's
	// (table, adversary, scheme, sensitive range), tenant-prefixed.
	levelKey string
	result   *Result
	ctx      context.Context
	cancel   context.CancelFunc
	done     chan struct{}
	// events is the per-job event log streamed by Engine.Stream; notify is
	// closed and replaced at every append (and at finish) to wake blocked
	// subscribers. Once the job is terminal and its result is durable the
	// log may be truncated to a bounded tail: eventsBase counts the events
	// dropped from the front (so absolute stream indices stay stable) and
	// droppedSeq is the highest sequence number among them. All guarded by mu.
	events     []Event
	eventsBase int
	droppedSeq uint64
	notify     chan struct{}
	// claimed marks a job whose terminal transition finalize has taken: its
	// outcome is decided and being persisted, but not yet published.
	// Guarded by mu.
	claimed bool
	// termRec is the terminal status record, attached in the same walMu
	// critical section that appends it (Seq 0 if the append failed), so
	// online compaction re-emits a terminal record that is durable but not
	// yet published. Its Seq closes the event stream. Guarded by mu.
	termRec *WALRecord
	// resultRec is the durable projection of a done job's result (nil for
	// jobs that failed, were canceled, or ran on an ephemeral store). It is
	// set before the result blob is written, and blob GC reads its TableHash
	// as a liveness root. Guarded by mu.
	resultRec *ResultRecord
	// cancelRequested marks a journaled cancellation whose terminal record
	// has not landed yet; online compaction must preserve the WALCancel
	// record (at cancelSeq) or a crash would re-run the canceled job.
	// Guarded by mu.
	cancelRequested bool
	cancelSeq       uint64
}

func (j *job) snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

func (j *job) setProgress(p float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.settledLocked() {
		j.status.Progress = p
	}
}

// settledLocked reports whether the job's outcome is decided: claimed by
// finalize or already terminal. Callers hold j.mu.
func (j *job) settledLocked() bool {
	return j.claimed || j.status.State.Terminal()
}

// start transitions pending → running; it reports false when the job was
// already finalized or claimed (e.g. canceled while queued).
func (j *job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.State != StatePending || j.claimed {
		return false
	}
	now := time.Now()
	j.status.State = StateRunning
	j.status.Started = &now
	return true
}

// claim takes the job's terminal transition exactly once and returns the
// status it will publish; later calls report false. The job's visible state
// is unchanged until publish.
func (j *job) claim(res *Result, err error) (Status, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.settledLocked() {
		return Status{}, false
	}
	j.claimed = true
	st := j.status
	now := time.Now()
	st.Finished = &now
	switch {
	case err == nil:
		st.State = StateDone
		st.Progress = 1
		st.Summary = res.summarize(st.Type)
		if res != nil && len(res.Levels) > 0 {
			// Adopt the result's level summaries: they carry the final
			// candidate flags the streamed partials could not know under
			// auto-calibration.
			st.Levels = res.Levels
		}
	case errors.Is(err, context.Canceled):
		st.State = StateCanceled
		st.Error = "canceled"
	default:
		st.State = StateFailed
		st.Error = err.Error()
	}
	return st, true
}

// publish makes a claimed terminal status visible. The state change, the
// event-log truncation (down to keepEvents, negative for none), close(done)
// and the subscriber wake-up share one critical section, so no observer
// sees the terminal state without the bounded log or the other way round.
func (j *job) publish(st Status, res *Result, keepEvents int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if st.State == StateDone {
		j.result = res
	}
	j.status.State = st.State
	j.status.Finished = st.Finished
	j.status.Progress = st.Progress
	j.status.Summary = st.Summary
	j.status.Error = st.Error
	j.status.Levels = st.Levels
	j.truncateEventsLocked(keepEvents)
	close(j.done)
	// Release the job's child context so finished jobs do not accumulate
	// on the engine's base context, and drop the captured input tables so
	// a deleted store table is not pinned for the daemon's lifetime. The
	// worker never reads p/aux after finalize: a claimed job fails its
	// start() gate.
	j.cancel()
	j.p, j.aux = nil, nil
	// Wake subscribers so they observe the terminal state and close out.
	j.broadcastLocked()
}

// newJob builds a runnable job record. Its context carries the job's
// identity, so every log line and trace span recorded under it is
// correlated to the job (cancel propagates through the value wrapper
// unchanged). Submit and crash recovery both build jobs here.
func (e *Engine) newJob(st Status, seq int, spec Spec) *job {
	ctx, cancel := context.WithCancel(e.baseCtx)
	ctx = obs.WithJobID(obs.WithTenant(ctx, st.Tenant), st.ID)
	return &job{
		status: st,
		seq:    seq,
		spec:   spec,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		notify: make(chan struct{}),
	}
}

// NewEngine builds an engine over the store. Call Start to launch the
// worker pool and Shutdown to drain it. The engine's quota table is also
// installed on the store, so table quotas and job quotas are configured in
// one place (Options.Quotas).
func NewEngine(store *Store, opts Options) *Engine {
	opts = opts.withDefaults()
	store.SetQuotas(opts.Quotas)
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		store:     store,
		opts:      opts,
		cache:     newResultCache(opts.CacheSize),
		levels:    newLevelIndex(opts.LevelIndexSize),
		baseCtx:   ctx,
		cancelAll: cancel,
		queue:     make(chan *job, opts.QueueDepth),
		jobs:      make(map[string]*job),
		pending:   make(map[string]int),
		tracer:    opts.Tracer,
		logger:    opts.Logger,
	}
	e.metrics = newEngineMetrics(opts.Metrics, e)
	e.cache.onEvict = func(tenant string) {
		e.metrics.cacheEvictions.With(tenant).Inc()
	}
	return e
}

// Start launches the worker pool and marks the engine ready. Recover (when
// used) runs before Start, so readiness is exactly "replay finished, pool
// accepting work".
func (e *Engine) Start() {
	for w := 0; w < e.opts.Workers; w++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for j := range e.queue {
				e.dequeued(j)
				if j.ctx.Err() != nil || !j.start() {
					e.finalize(j, nil, context.Canceled)
					continue
				}
				e.busyWorkers.Add(1)
				st := j.snapshot()
				e.metrics.started.With(st.Tenant, string(st.Type)).Inc()
				ctx, span := e.tracer.StartSpan(j.ctx, "job.run")
				span.SetAttr("type", string(st.Type))
				res, err := e.run(ctx, j)
				span.End()
				e.busyWorkers.Add(-1)
				// Partial (budget-truncated) results are not memoized: an
				// identical resubmission with a fresh budget should compute
				// the missing levels, not replay the truncation. Their
				// computed levels still entered the level index, so the
				// re-run warm-starts from them.
				if err == nil && !res.Partial {
					e.cachePut(j, res)
				}
				e.finalize(j, res, err)
			}
		}()
	}
	e.ready.Store(true)
}

// Ready reports whether Start has launched the worker pool. It is false for
// the whole Recover replay window, which is what /v1/readyz serves.
func (e *Engine) Ready() bool { return e.ready.Load() }

// EngineStats is a point-in-time operational snapshot, served by healthz and
// logged at shutdown.
type EngineStats struct {
	// Ready mirrors Engine.Ready.
	Ready bool `json:"ready"`
	// WALSeq is the last event sequence number appended to the job log.
	WALSeq uint64 `json:"wal_seq"`
	// JobsFinished counts terminal transitions since process start. Unlike
	// the job log it is not reduced by retention eviction or Delete.
	JobsFinished uint64 `json:"jobs_finished"`
	// JobsLive counts pending plus running jobs.
	JobsLive int `json:"jobs_live"`
	// JobsPending counts jobs enqueued but not yet picked up by a worker.
	JobsPending int `json:"jobs_pending"`
	// JobsShed counts submissions refused by admission control since start.
	JobsShed uint64 `json:"jobs_shed"`
	// RecoveryErrors lists jobs the last Recover re-submitted that
	// immediately failed (for example on a table deleted before the crash).
	// Empty on a clean recovery.
	RecoveryErrors []string `json:"recovery_errors,omitempty"`
}

// Stats returns the engine's operational snapshot.
func (e *Engine) Stats() EngineStats {
	e.walMu.Lock()
	seq := e.eventSeq
	e.walMu.Unlock()
	live := 0
	e.mu.RLock()
	for _, j := range e.jobs {
		if !j.snapshot().State.Terminal() {
			live++
		}
	}
	pending := e.pendingTotal
	recoveryErrs := append([]string(nil), e.recoveryErrs...)
	e.mu.RUnlock()
	return EngineStats{
		Ready:          e.Ready(),
		WALSeq:         seq,
		JobsFinished:   e.doneJobs.Load(),
		JobsLive:       live,
		JobsPending:    pending,
		JobsShed:       e.jobsShed.Load(),
		RecoveryErrors: recoveryErrs,
	}
}

// cachePut registers a finished job's result under its tenant-scoped cache
// key, bounded by the tenant's cache share.
func (e *Engine) cachePut(j *job, res *Result) {
	tenant := j.snapshot().Tenant
	e.cache.Put(tenant, j.key, res, e.opts.Quotas.For(tenant).CacheShare)
}

// finalize finishes a job exactly once, in the order that keeps every
// client-visible terminal state behind what a crash preserves: claim the
// transition, persist it (result blob, terminal WAL record, sync), do the
// bookkeeping a client can see (retention eviction and its WAL deletes,
// the finished metrics and log line), then publish. It must not be called
// while holding e.mu (it performs WAL I/O and takes the lock itself).
func (e *Engine) finalize(j *job, res *Result, err error) bool {
	st, ok := j.claim(res, err)
	if !ok {
		return false
	}
	e.persistTerminal(j, st, res)
	e.mu.Lock()
	evicted := e.retireLocked(j)
	e.mu.Unlock()
	e.logDeletes(evicted)
	e.observeTerminal(st)
	j.publish(st, res, e.opts.MaxJobEvents)
	return true
}

// observeTerminal records a finishing job's metrics and log line from its
// terminal status. The duration histogram measures worker start →
// terminal, so cache-served jobs (never started) contribute to
// jobs_finished_total but not to duration.
func (e *Engine) observeTerminal(st Status) {
	e.doneJobs.Add(1)
	e.metrics.finished.With(st.Tenant, string(st.Type), string(st.State)).Inc()
	attrs := []any{"type", string(st.Type), "state", string(st.State), "cached", st.Cached}
	if st.Started != nil && st.Finished != nil {
		d := st.Finished.Sub(*st.Started)
		e.metrics.duration.With(st.Tenant, string(st.Type)).Observe(d.Seconds())
		e.execCount.Add(1)
		e.execNanos.Add(d.Nanoseconds())
		attrs = append(attrs, "duration", d)
	}
	if st.Error != "" {
		attrs = append(attrs, "error", st.Error)
	}
	e.logger.InfoContext(e.jobCtx(st), "job finished", attrs...)
}

// jobCtx builds a context carrying a job's identity for log correlation —
// used on paths (finalize, cancel) that may run outside the job's own
// context.
func (e *Engine) jobCtx(st Status) context.Context {
	return obs.WithJobID(obs.WithTenant(context.Background(), st.Tenant), st.ID)
}

// retireLocked records a terminal job in the finished log, evicts the
// oldest-finished jobs beyond the retention limit and returns the evicted
// IDs for WAL retraction. Callers hold e.mu.
func (e *Engine) retireLocked(j *job) []string {
	if e.opts.MaxFinishedJobs < 0 {
		return nil
	}
	if _, ok := e.jobs[j.status.ID]; !ok {
		// No longer in the job log: don't resurrect a ghost entry that
		// would pin the result and consume a retention slot.
		return nil
	}
	e.finished = append(e.finished, j)
	var evicted []string
	for len(e.finished) > e.opts.MaxFinishedJobs {
		old := e.finished[0]
		e.finished[0] = nil
		e.finished = e.finished[1:]
		delete(e.jobs, old.status.ID)
		evicted = append(evicted, old.status.ID)
	}
	return evicted
}

// The persistence operations persist_errors_total counts.
const (
	opHashTable = "hash_table"
	opPutBlob   = "put_blob"
	opAppendWAL = "append_wal"
	opSyncWAL   = "sync_wal"
)

// persistFailed counts and logs a failed persistence operation for job id
// (empty when no one job is concerned). The engine carries on less durable
// than it should be; this is how an operator learns of it.
func (e *Engine) persistFailed(op, id string, err error) {
	e.metrics.persistErrors.With(op).Inc()
	e.logger.Warn("persistence failed", "op", op, "job", id, "err", err)
}

// appendWAL assigns the next event sequence number to rec and appends it to
// the job log. Append errors degrade durability, not availability: the
// running job proceeds, the failure is counted and logged, and the error is
// reported to the caller for paths that can refuse (Submit).
func (e *Engine) appendWAL(rec *WALRecord) (uint64, error) {
	e.walMu.Lock()
	defer e.walMu.Unlock()
	e.eventSeq++
	rec.Seq = e.eventSeq
	err := e.opts.JobLog.AppendWAL(rec)
	if err != nil {
		e.persistFailed(opAppendWAL, rec.JobID, err)
	}
	return rec.Seq, err
}

// syncWAL flushes the job log, counting and logging a failure.
func (e *Engine) syncWAL(id string) {
	if err := e.opts.JobLog.SyncWAL(); err != nil {
		e.persistFailed(opSyncWAL, id, err)
	}
}

// persistTerminal makes a claimed terminal status durable before anything
// observes it: for a done job on a durable store the result projection and
// its table blob, then the terminal WAL record, then a sync — terminal
// records are the ones a crash must not lose.
func (e *Engine) persistTerminal(j *job, st Status, res *Result) {
	rec := &WALRecord{Kind: WALStatus, JobID: st.ID, Status: &st}
	if st.State == StateDone {
		rec.Result = e.resultRecord(j, res)
	}
	if err := e.appendTerminal(j, rec); err != nil {
		e.persistFailed(opAppendWAL, st.ID, err)
		return
	}
	e.syncWAL(st.ID)
}

// appendTerminal appends a job's terminal record and attaches it to the job
// in the same walMu critical section. CompactLog holds walMu for its whole
// rewrite, so it either runs before the append or finds the record on the
// job, even while the job has not published its terminal state.
func (e *Engine) appendTerminal(j *job, rec *WALRecord) error {
	e.walMu.Lock()
	defer e.walMu.Unlock()
	e.eventSeq++
	rec.Seq = e.eventSeq
	err := e.opts.JobLog.AppendWAL(rec)
	if err != nil {
		// Not durable: the terminal event must not advertise a sequence
		// number recovery could reissue (see recordLevel).
		rec.Seq = 0
	}
	j.mu.Lock()
	j.termRec = rec
	j.mu.Unlock()
	return err
}

// resultRecord builds the durable projection of a done job's result,
// persisting the result table as a content-addressed blob. The hash is a
// blob-GC root (resultRec) before the blob is written. Ephemeral stores
// skip the blob work entirely.
func (e *Engine) resultRecord(j *job, res *Result) *ResultRecord {
	if res == nil || !e.store.Durable() {
		return nil
	}
	rec := &ResultRecord{
		Levels:     res.Levels,
		OptimalK:   res.OptimalK,
		Hmax:       res.Hmax,
		Tp:         res.Tp,
		Tu:         res.Tu,
		Evaluated:  res.Evaluated,
		Partial:    res.Partial,
		Before:     res.Before,
		After:      res.After,
		Assessment: res.Assessment,
	}
	j.mu.Lock()
	j.resultRec = rec
	j.mu.Unlock()
	if res.Table == nil {
		return rec
	}
	h, err := HashTable(res.Table)
	if err != nil {
		e.persistFailed(opHashTable, j.status.ID, err)
		return rec
	}
	// Root the hash, then write the blob, both under blobMu (see GCBlobs).
	e.blobMu.RLock()
	defer e.blobMu.RUnlock()
	j.mu.Lock()
	rec.TableHash = h
	j.mu.Unlock()
	if err := e.store.PutBlob(h, res.Table); err != nil {
		e.persistFailed(opPutBlob, j.status.ID, err)
		j.mu.Lock()
		rec.TableHash = "" // no blob: recovery must not look for one
		j.mu.Unlock()
	}
	return rec
}

// logDeletes appends WAL retractions for jobs dropped from the log.
func (e *Engine) logDeletes(ids []string) {
	for _, id := range ids {
		e.appendWAL(&WALRecord{Kind: WALDelete, JobID: id}) //nolint:errcheck // appendWAL counts and logs a failure
	}
}

// Shutdown stops accepting jobs and waits for in-flight work. If ctx
// expires first, running jobs are canceled and Shutdown returns ctx.Err()
// after they unwind.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		e.cancelAll()
		<-drained
		err = ctx.Err()
	}
	// Flush the job log last: every in-flight job has written its terminal
	// record by now.
	e.syncWAL("")
	return err
}

// Submit validates the spec, resolves its tables from tenant's namespace,
// and enqueues the job on tenant's behalf. A cache hit completes the job
// immediately with Status.Cached set. A tenant at its MaxJobs quota (live =
// pending or running) is refused with a QuotaError. The returned Status is
// the initial snapshot; poll Job for updates.
func (e *Engine) Submit(tenant string, spec Spec) (Status, error) {
	if err := ValidateTenant(tenant); err != nil {
		return Status{}, err
	}
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return Status{}, err
	}
	p, aux, key, levelKey, err := e.resolveInputs(tenant, spec)
	if err != nil {
		return Status{}, err
	}
	if err := spec.checkCalibratable(p.NumRows()); err != nil {
		return Status{}, err
	}

	// ID assignment is its own short critical section; the WAL append (disk
	// I/O) runs outside e.mu so a slow submission never stalls job reads,
	// polls or stream subscriptions. The quota check shares the section with
	// registration, so two racing submissions cannot both squeeze under the
	// same last quota slot.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return Status{}, errors.New("service: engine is shut down")
	}
	if q := e.opts.Quotas.For(tenant); q.MaxJobs > 0 && e.liveJobsLocked(tenant) >= q.MaxJobs {
		e.mu.Unlock()
		return Status{}, &QuotaError{Tenant: tenant, Resource: "jobs", Limit: q.MaxJobs}
	}
	e.seq++
	now := time.Now()
	j := e.newJob(Status{ID: fmt.Sprintf("job-%d", e.seq), Tenant: tenant, Type: spec.Type, State: StatePending, Created: now}, e.seq, spec)
	j.p, j.aux, j.key, j.levelKey = p, aux, key, levelKey
	// Register before releasing the lock: a submission must be visible to
	// EvictTables (which spares tables referenced by live jobs) for the
	// whole window the WAL append below may block on disk. A refused
	// submission unregisters itself.
	e.jobs[j.status.ID] = j
	e.mu.Unlock()
	unregister := func() {
		e.mu.Lock()
		delete(e.jobs, j.status.ID)
		e.mu.Unlock()
		j.cancel()
	}
	// The WAL submission record is written before the job becomes runnable:
	// a crash at any later point replays as an interrupted job and is
	// re-run — a submission is never silently lost. A WAL append failure
	// refuses the submission outright.
	if _, err := e.appendWAL(&WALRecord{Kind: WALJob, Ver: walSpecVersion, JobID: j.status.ID, JobSeq: j.seq, Tenant: tenant, Spec: &spec, Created: &now}); err != nil {
		unregister()
		return Status{}, fmt.Errorf("service: append job log: %w", err)
	}
	retract := func(reason error) (Status, error) {
		unregister()
		// Retract the never-enqueued submission so replay does not re-run it.
		e.appendWAL(&WALRecord{Kind: WALDelete, JobID: j.status.ID}) //nolint:errcheck // appendWAL counts and logs a failure
		return Status{}, reason
	}
	// The enqueue shares one critical section with the closed check:
	// Shutdown closes the queue under the same mutex, so Submit can never
	// send on a closed channel.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return retract(errors.New("service: engine is shut down"))
	}
	e.metrics.submitted.With(tenant, string(spec.Type)).Inc()
	if res, ok := e.cache.Get(j.key); ok {
		e.mu.Unlock()
		e.metrics.cacheHits.With(tenant).Inc()
		// The job is already visible, so the status write takes its lock.
		j.mu.Lock()
		j.status.Cached = true
		j.mu.Unlock()
		e.logger.InfoContext(j.ctx, "job submitted", "type", string(spec.Type), "cached", true)
		e.finalize(j, res, nil)
		return j.snapshot(), nil
	}
	e.metrics.cacheMisses.With(tenant).Inc()
	// Admission control: the tenant's pending share is checked first, then
	// the global queue bound (the channel capacity). Either refusal is an
	// OverloadError the HTTP layer turns into 429 + Retry-After.
	if limit, refused := e.admitLocked(tenant); refused {
		e.mu.Unlock()
		return retract(e.shed(tenant, "tenant", limit))
	}
	select {
	case e.queue <- j:
		e.enqueuedLocked(tenant)
		e.mu.Unlock()
	default:
		e.mu.Unlock()
		return retract(e.shed(tenant, "global", e.opts.QueueDepth))
	}
	e.logger.InfoContext(j.ctx, "job submitted", "type", string(spec.Type), "cached", false)
	return j.snapshot(), nil
}

// liveJobsLocked counts tenant's pending and running jobs. Callers hold
// e.mu (read or write).
func (e *Engine) liveJobsLocked(tenant string) int {
	n := 0
	for _, j := range e.jobs {
		st := j.snapshot()
		if st.Tenant == tenant && !st.State.Terminal() {
			n++
		}
	}
	return n
}

// Job returns the current status snapshot of one of tenant's jobs.
func (e *Engine) Job(tenant, id string) (Status, error) {
	j, err := e.get(tenant, id)
	if err != nil {
		return Status{}, err
	}
	return j.snapshot(), nil
}

// Jobs lists the status of every job in tenant's namespace, oldest first.
func (e *Engine) Jobs(tenant string) []Status {
	e.mu.RLock()
	all := make([]*job, 0, len(e.jobs))
	for _, j := range e.jobs {
		all = append(all, j)
	}
	e.mu.RUnlock()
	sort.Slice(all, func(i, k int) bool { return all[i].seq < all[k].seq })
	out := make([]Status, 0, len(all))
	for _, j := range all {
		if st := j.snapshot(); st.Tenant == tenant {
			out = append(out, st)
		}
	}
	return out
}

// Result returns a finished job's payload; ErrNotFinished before then.
func (e *Engine) Result(tenant, id string) (*Result, error) {
	j, err := e.get(tenant, id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.State != StateDone {
		if j.status.State == StateFailed || j.status.State == StateCanceled {
			return nil, fmt.Errorf("service: job %s %s: %s", id, j.status.State, j.status.Error)
		}
		return nil, ErrNotFinished
	}
	if j.result == nil {
		// A job recovered from the log whose result could not be rebuilt
		// (e.g. its blob predates the crash-recovery format).
		return nil, fmt.Errorf("service: job %s finished before the last restart and its result is no longer available", id)
	}
	return j.result, nil
}

// Cancel cancels a pending or running job. Pending jobs finalize
// immediately; running jobs stop at their next cancellation point — for a
// fred-sweep that is between levels, mid-sweep, because the cancellation
// propagates through the job context into the streaming sweep executor. A
// job already in a terminal state reports ErrAlreadyFinished.
func (e *Engine) Cancel(tenant, id string) error {
	j, err := e.get(tenant, id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	state := j.status.State
	j.mu.Unlock()
	if state.Terminal() {
		return fmt.Errorf("%w: job %s is %s", ErrAlreadyFinished, id, state)
	}
	// The cancellation is journaled before anything else: a crash after
	// Cancel returns but before the worker unwinds and writes the terminal
	// status must not replay the job as interrupted and re-run it. The
	// journaled seq is remembered so online log compaction re-emits the
	// cancel record for jobs still unwinding.
	seq, cancelErr := e.appendWAL(&WALRecord{Kind: WALCancel, JobID: id})
	j.mu.Lock()
	if cancelErr == nil {
		j.cancelRequested = true
		j.cancelSeq = seq
	}
	j.mu.Unlock()
	e.metrics.canceled.With(tenant).Inc()
	e.logger.InfoContext(e.jobCtx(j.snapshot()), "job canceled", "was", string(state))
	j.cancel()
	if state == StatePending {
		e.finalize(j, nil, context.Canceled)
	}
	return nil
}

// Delete purges a terminal job from the job log, freeing its result and
// retracting it from the durable log. A job that is still pending or running
// reports ErrNotFinished — cancel it first. The job's result blob, if any,
// stays in the blob space: blobs are content-addressed and may be shared.
func (e *Engine) Delete(tenant, id string) error {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok || j.snapshot().Tenant != tenant {
		e.mu.Unlock()
		return &ErrNotFound{Kind: "job", ID: id}
	}
	if !j.snapshot().State.Terminal() {
		e.mu.Unlock()
		return fmt.Errorf("%w: job %s is not terminal; cancel it before deleting", ErrNotFinished, id)
	}
	delete(e.jobs, id)
	// Drop the finished-log entry too, so the job's result is freed now and
	// the ghost does not consume a retention slot.
	for i, fj := range e.finished {
		if fj == j {
			e.finished = append(e.finished[:i], e.finished[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
	e.appendWAL(&WALRecord{Kind: WALDelete, JobID: id}) //nolint:errcheck // appendWAL counts and logs a failure
	return nil
}

// Wait blocks until the job reaches a terminal state or ctx expires. It
// parks on the job's done channel (closed exactly once by finish), so a
// cancellation that interrupts a sweep mid-flight unblocks every waiter
// immediately — there is no polling loop or sleep anywhere on this path.
func (e *Engine) Wait(ctx context.Context, tenant, id string) (Status, error) {
	j, err := e.get(tenant, id)
	if err != nil {
		return Status{}, err
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return j.snapshot(), ctx.Err()
	}
}

// resolveInputs fetches a spec's tables from tenant's namespace and builds
// its tenant-scoped cache key. Submit and the crash-recovery resubmission
// path share it, so the two can never diverge on resolution or key
// semantics. The tenant prefixes the key: byte-identical tables uploaded by
// two tenants must not share cache entries — a cross-tenant hit would leak
// that the other tenant ran the same job.
func (e *Engine) resolveInputs(tenant string, spec Spec) (p, aux *dataset.Table, key, levelKey string, err error) {
	p, pInfo, err := e.store.Get(tenant, spec.Table)
	if err != nil {
		return nil, nil, "", "", err
	}
	var auxHash string
	if spec.Aux != "" {
		var auxInfo TableInfo
		if aux, auxInfo, err = e.store.Get(tenant, spec.Aux); err != nil {
			return nil, nil, "", "", err
		}
		auxHash = auxInfo.Hash
	}
	return p, aux,
		tenant + "|" + spec.cacheKey(pInfo.Hash, auxHash),
		tenant + "|" + spec.levelKey(pInfo.Hash, auxHash), nil
}

// get resolves a job ID within tenant's namespace. A job owned by another
// tenant is reported exactly like a nonexistent one — foreign IDs must be
// unobservable, not merely forbidden.
func (e *Engine) get(tenant, id string) (*job, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	j, ok := e.jobs[id]
	if !ok || j.snapshot().Tenant != tenant {
		return nil, &ErrNotFound{Kind: "job", ID: id}
	}
	return j, nil
}

// --- job execution ----------------------------------------------------------

// run dispatches a started job. ctx is the job's cancellation context,
// threaded through every workload so Cancel (and engine shutdown) interrupts
// work mid-flight — for sweeps, between levels — rather than only between
// jobs.
func (e *Engine) run(ctx context.Context, j *job) (*Result, error) {
	switch j.spec.Type {
	case JobAnonymize:
		return e.runAnonymize(ctx, j)
	case JobAttack:
		return e.runAttack(ctx, j)
	case JobFREDSweep:
		return e.runFREDSweep(ctx, j)
	case JobAssess:
		return e.runAssess(ctx, j)
	default:
		return nil, fmt.Errorf("service: unknown job type %q", j.spec.Type)
	}
}

func anonymizerFor(scheme string) core.Anonymizer {
	if scheme == "mondrian" {
		return mondrian.New()
	}
	return microagg.New()
}

func (sp Spec) attackConfig(aux *dataset.Table) core.AttackConfig {
	return core.AttackConfig{
		Aux:            aux,
		Estimator:      fusion.NewFuzzy(),
		SensitiveRange: fusion.Range{Lo: sp.SensitiveLo, Hi: sp.SensitiveHi},
	}
}

// release anonymizes p at level k and suppresses the sensitive columns —
// the enterprise release step shared by every job type. The suppression is a
// zero-copy column-mask view over the anonymizer's output.
func release(p *dataset.Table, anon core.Anonymizer, k int) (*dataset.Table, error) {
	out, err := anon.Anonymize(p, k)
	if err != nil {
		return nil, err
	}
	return out.WithSuppressed(out.Schema().IndicesOf(dataset.Sensitive)...), nil
}

func (e *Engine) runAnonymize(ctx context.Context, j *job) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rel, err := release(j.p, anonymizerFor(j.spec.Scheme), j.spec.K)
	if err != nil {
		return nil, err
	}
	return &Result{Table: rel}, nil
}

func (e *Engine) runAttack(ctx context.Context, j *job) (*Result, error) {
	rel, err := release(j.p, anonymizerFor(j.spec.Scheme), j.spec.K)
	if err != nil {
		return nil, err
	}
	j.setProgress(0.5)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	phat, before, after, err := core.Attack(j.p, rel, j.spec.attackConfig(j.aux))
	if err != nil {
		return nil, err
	}
	return &Result{Table: phat, Before: before, After: after}, nil
}

func (e *Engine) runAssess(ctx context.Context, j *job) (*Result, error) {
	sens := j.p.Schema().NamesOf(dataset.Sensitive)
	if len(sens) != 1 {
		return nil, fmt.Errorf("service: assess needs exactly one sensitive column, table has %d", len(sens))
	}
	rel, err := release(j.p, anonymizerFor(j.spec.Scheme), j.spec.K)
	if err != nil {
		return nil, err
	}
	j.setProgress(0.4)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	phat, _, _, err := core.Attack(j.p, rel, j.spec.attackConfig(j.aux))
	if err != nil {
		return nil, err
	}
	j.setProgress(0.8)
	a, err := risk.Assess(j.p, phat, sens[0], j.spec.SensitiveLo, j.spec.SensitiveHi)
	if err != nil {
		return nil, err
	}
	return &Result{Table: phat, Assessment: a}, nil
}

// runFREDSweep lives in sweepjob.go: every fred-sweep runs through the
// planner.
