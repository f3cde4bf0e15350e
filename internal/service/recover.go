package service

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// This file implements crash recovery: after Store.Open reloaded the
// tables, Engine.Recover replays the durable job log into the engine's own
// job records, rebuilds terminal jobs (results included, via the table
// backend's blob space), re-submits interrupted jobs — fred-sweeps seeded
// with every level they checkpointed, which the planner holds instead of
// recomputing, so they continue instead of restarting — and compacts the
// log to the live image, as online compaction does. It also hosts the table
// TTL sweep, which consults the live-job set recovery re-established.

// RecoveredJob describes one job Engine.Recover restored or re-submitted.
type RecoveredJob struct {
	Status Status
	// Resumed reports that the job was interrupted by the crash and has
	// been re-submitted; a fred-sweep holds its checkpointed levels and
	// computes only the rest instead of restarting.
	Resumed bool
}

// Recover rebuilds the engine from the job log. It must run after
// Store.Open and before Start and the first Submit: recovered jobs reclaim
// their original IDs, and re-submitted jobs are placed on the (not yet
// consumed) queue. Each job's records are folded into a job record built by
// newJob, as Submit builds one, and the log is compacted to the live image
// through CompactLog, so it does not grow across restarts. The returned
// slice describes every recovered job, re-submitted ones marked Resumed.
func (e *Engine) Recover() ([]RecoveredJob, error) {
	byID := make(map[string][]WALRecord)
	var ids []string
	var maxSeq uint64
	var maxJobSeq int
	err := e.opts.JobLog.ReplayWAL(func(rec WALRecord) error {
		if rec.Ver > walSpecVersion {
			// A log written by a newer build: its spec vocabulary may carry
			// fields this build would silently drop, turning a resumed job
			// into a different job. Refuse loudly.
			return fmt.Errorf("record %d has spec version %d, this build understands ≤ %d",
				rec.Seq, rec.Ver, walSpecVersion)
		}
		// Job records carry the job-ID counter, and a compaction high-water
		// marker restores both counters even though the records that
		// produced them are gone.
		maxSeq = max(maxSeq, rec.Seq)
		maxJobSeq = max(maxJobSeq, rec.JobSeq)
		if rec.Kind == WALMark {
			return nil
		}
		if _, ok := byID[rec.JobID]; !ok {
			ids = append(ids, rec.JobID)
		}
		byID[rec.JobID] = append(byID[rec.JobID], rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("service: replay job log: %w", err)
	}

	e.mu.Lock()
	e.seq = maxJobSeq
	e.mu.Unlock()
	e.walMu.Lock()
	e.eventSeq = maxSeq
	e.walMu.Unlock()

	var jobs []*job
	for _, id := range ids {
		if j := e.replayJob(byID[id]); j != nil {
			jobs = append(jobs, j)
		}
	}
	sort.SliceStable(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	var recovered []RecoveredJob
	var interrupted []*job
	for _, j := range jobs {
		if j.termRec != nil {
			e.rebuildTerminal(j)
			recovered = append(recovered, RecoveredJob{Status: j.snapshot()})
			continue
		}
		j.status.Resumed = true
		e.mu.Lock()
		e.jobs[j.status.ID] = j
		e.mu.Unlock()
		interrupted = append(interrupted, j)
		recovered = append(recovered, RecoveredJob{Status: j.snapshot(), Resumed: true})
	}
	// Checkpoints stay in the compacted log for every job: interrupted jobs
	// resume from them after a second crash, and terminal jobs keep their
	// event feed — and therefore their subscribers' resume cursors — valid
	// across any number of restarts. So the log is compacted before terminal
	// feeds are trimmed to the replay-buffer bound live jobs obey.
	if err := e.CompactLog(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	for _, j := range e.finished {
		j.mu.Lock()
		j.truncateEventsLocked(e.opts.MaxJobEvents)
		j.mu.Unlock()
	}
	e.mu.Unlock()
	e.sortFinished()
	for _, j := range interrupted {
		e.resubmit(j)
	}
	return recovered, nil
}

// replayJob folds one job's WAL records, in log order, into a job record
// built by newJob from its submission record: each checkpoint joins the
// event feed (original seqs, so subscribers' cursors stay valid) and the
// status's level series, a cancel is noted, and the terminal record is
// attached as termRec, the feed cut at it. It returns nil for a job a
// delete record retracted, or whose submission record is missing (e.g. it
// was the torn final line).
func (e *Engine) replayJob(recs []WALRecord) *job {
	i := slices.IndexFunc(recs, func(rec WALRecord) bool {
		return rec.Kind == WALJob && rec.Spec != nil && rec.Spec.Type != ""
	})
	if i < 0 {
		return nil
	}
	sub := recs[i]
	// The default-tenant migration: job records written before
	// multi-tenancy carry no tenant and are adopted into DefaultTenant,
	// matching Store.Open's adoption of untagged table metadata.
	tenant := sub.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	var created time.Time
	if sub.Created != nil {
		created = *sub.Created
	}
	j := e.newJob(Status{
		ID: sub.JobID, Tenant: tenant, Type: sub.Spec.Type, State: StatePending, Created: created,
	}, sub.JobSeq, *sub.Spec)
	for _, rec := range recs {
		switch rec.Kind {
		case WALLevel:
			j.events = append(j.events, Event{
				Type: EventLevel, Seq: rec.Seq, Job: j.status.ID, Level: rec.Level,
				Calibration: rec.Calibration, Progress: rec.Progress, Source: rec.Source,
			})
			if rec.Level != nil {
				j.status.Levels = append(j.status.Levels, *rec.Level)
				j.status.Progress = rec.Progress
			}
		case WALStatus:
			if rec.Status != nil {
				j.termRec = &WALRecord{Seq: rec.Seq, Kind: WALStatus, JobID: rec.JobID, Status: rec.Status, Result: rec.Result}
			}
		case WALCancel:
			j.cancelRequested, j.cancelSeq = true, rec.Seq
		case WALDelete:
			j.cancel()
			return nil
		}
	}
	if j.termRec == nil && j.cancelRequested {
		// Cancelled, but the crash beat the worker to the terminal record:
		// synthesize the canceled terminal state the worker would have
		// written, instead of re-running an explicitly cancelled job. Its
		// levels are the strict prefix checkpointed before the cancel, the
		// same prefix a live cancel keeps.
		now := time.Now()
		st := Status{
			ID: j.status.ID, Tenant: tenant, Type: j.status.Type, State: StateCanceled,
			Error: "canceled", Created: created, Finished: &now,
		}
		for _, ev := range j.events {
			if ev.Level != nil && ev.Seq < j.cancelSeq {
				st.Levels = append(st.Levels, *ev.Level)
			}
		}
		j.termRec = &WALRecord{Seq: j.cancelSeq, Kind: WALStatus, JobID: st.ID, Status: &st}
	}
	if j.termRec == nil {
		return j
	}
	// Drop checkpoints recorded after the terminal record: a cancel racing
	// the last in-flight level can append one stray WALLevel the live stream
	// never delivered, and replaying it would make the rebuilt event feed
	// disagree with Status.Levels. (A record at seq 0 is one whose append
	// failed, which online compaction wrote later: it cuts nothing.)
	if s := j.termRec.Seq; s > 0 {
		j.events = slices.DeleteFunc(j.events, func(ev Event) bool { return ev.Seq >= s })
	}
	if n := len(j.termRec.Status.Levels) - len(j.events); n > 0 && len(j.events) > 0 {
		// The durable log carries only a truncated tail of the level series
		// (online compaction ran after event truncation): restore the base
		// offset so resuming subscribers keep getting the same synthesized
		// result replay they would have gotten before the restart.
		j.eventsBase = n
		if s := j.events[0].Seq; s > 0 {
			j.droppedSeq = s - 1
		}
	}
	return j
}

// rebuildTerminal finishes a replayed job from its terminal record: its
// status (records written before multi-tenancy adopt the job's tenant) and,
// for done jobs, the Result, its table reloaded from the blob space,
// re-seeded into the result cache. A missing or unreadable blob degrades to
// a result-less job rather than failing recovery. The job joins the
// finished log, its context cancelled as publish cancels it.
func (e *Engine) rebuildTerminal(j *job) {
	st := *j.termRec.Status
	if st.Tenant == "" {
		st.Tenant = j.status.Tenant
	}
	j.termRec.Status = &st
	j.status = st
	rr := j.termRec.Result
	j.resultRec = rr
	if st.State == StateDone && rr != nil {
		res := &Result{
			Levels:     rr.Levels,
			OptimalK:   rr.OptimalK,
			Hmax:       rr.Hmax,
			Tp:         rr.Tp,
			Tu:         rr.Tu,
			Evaluated:  rr.Evaluated,
			Partial:    rr.Partial,
			Before:     rr.Before,
			After:      rr.After,
			Assessment: rr.Assessment,
		}
		if rr.TableHash != "" {
			if t, err := e.store.Blob(rr.TableHash); err == nil {
				res.Table = t
			}
		}
		j.result = res
		e.reseedCache(j, res)
	}
	close(j.done)
	j.cancel()
	e.mu.Lock()
	e.jobs[st.ID] = j
	e.finished = append(e.finished, j)
	e.mu.Unlock()
}

// reseedCache re-registers a recovered done job's result under its cache
// key, so identical post-restart submissions hit the cache exactly as they
// would have before the crash. Jobs whose input tables are gone (deleted,
// or TTL-evicted) are skipped — their key can no longer be formed.
func (e *Engine) reseedCache(j *job, res *Result) {
	if res.Table == nil && j.status.Type != JobAssess {
		return // incomplete rebuild (missing blob): don't serve it from cache
	}
	_, _, key, _, err := e.resolveInputs(j.status.Tenant, j.spec)
	if err != nil {
		return
	}
	e.cache.Put(j.status.Tenant, key, res, e.opts.Quotas.For(j.status.Tenant).CacheShare)
}

// resubmit resolves a rebuilt interrupted job's tables and enqueues it. A
// job whose inputs cannot be resolved (table deleted before the crash, or
// queue overflow) finalizes as failed instead of blocking recovery, and the
// failure is recorded for healthz (readiness alone would hide it: the pool
// comes up fine, the job just failed instantly).
func (e *Engine) resubmit(j *job) {
	p, aux, key, levelKey, err := e.resolveInputs(j.status.Tenant, j.spec)
	if err != nil {
		e.noteRecoveryError(j.status.ID, err)
		e.finalize(j, nil, fmt.Errorf("resume: %w", err))
		return
	}
	j.p, j.aux, j.key, j.levelKey = p, aux, key, levelKey
	e.mu.Lock()
	select {
	case e.queue <- j:
		e.enqueuedLocked(j.status.Tenant)
		e.mu.Unlock()
	default:
		e.mu.Unlock()
		e.noteRecoveryError(j.status.ID, ErrQueueFull)
		e.finalize(j, nil, fmt.Errorf("resume: %w", ErrQueueFull))
	}
}

// noteRecoveryError records a job recovery tried to re-submit but couldn't,
// for EngineStats.RecoveryErrors / healthz.
func (e *Engine) noteRecoveryError(id string, err error) {
	e.mu.Lock()
	e.recoveryErrs = append(e.recoveryErrs, fmt.Sprintf("%s: %v", id, err))
	e.mu.Unlock()
}

// sortFinished restores the finished log's finish order after recovery, so
// retention keeps evicting oldest-finished first.
func (e *Engine) sortFinished() {
	e.mu.Lock()
	defer e.mu.Unlock()
	sort.SliceStable(e.finished, func(i, k int) bool {
		fi, fk := e.finished[i].status.Finished, e.finished[k].status.Finished
		switch {
		case fi == nil:
			return fk != nil
		case fk == nil:
			return false
		default:
			return fi.Before(*fk)
		}
	})
}

// EvictTables removes tables older than ttl that no pending or running job
// references from the store and its backend, returning the evicted
// metadata. It is the TTL garbage collection behind `served -table-ttl`.
// Tables referenced by in-flight jobs are exempt; jobs already holding
// table pointers are unaffected either way (tables are immutable — eviction
// only frees the handle and the backing files).
func (e *Engine) EvictTables(ttl time.Duration) []TableInfo {
	// Table handles are only unique per tenant, so the in-use set is keyed
	// by (tenant, id) — tenant A's live job must not shield tenant B's
	// same-numbered table from eviction.
	inUse := make(map[[2]string]bool)
	e.mu.RLock()
	for _, j := range e.jobs {
		if st := j.snapshot(); !st.State.Terminal() {
			inUse[[2]string{st.Tenant, j.spec.Table}] = true
			if j.spec.Aux != "" {
				inUse[[2]string{st.Tenant, j.spec.Aux}] = true
			}
		}
	}
	e.mu.RUnlock()
	return e.store.Evict(time.Now().Add(-ttl), func(info TableInfo) bool {
		return inUse[[2]string{info.Tenant, info.ID}]
	})
}
