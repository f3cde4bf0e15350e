package service

import (
	"fmt"
	"sort"
	"time"
)

// This file implements crash recovery: Engine.Recover replays the durable
// job log after Store.Open reloaded the tables, rebuilds terminal jobs
// (results included, via the table backend's blob space), re-submits
// interrupted jobs — fred-sweeps seeded with every level they checkpointed,
// which the planner holds instead of recomputing, so they continue instead
// of restarting — and compacts the log to the live image. It also hosts the
// table TTL sweep, which consults the live-job set recovery re-established.

// RecoveredJob describes one job Engine.Recover restored or re-submitted.
type RecoveredJob struct {
	Status Status
	// Resumed reports that the job was interrupted by the crash and has
	// been re-submitted; a fred-sweep holds its checkpointed levels and
	// computes only the rest instead of restarting.
	Resumed bool
}

// replayedJob accumulates one job's WAL records during replay.
type replayedJob struct {
	id      string
	seq     int
	tenant  string
	spec    Spec
	created time.Time
	deleted bool

	levels    []WALRecord // kind "level", in append order
	status    *Status
	statusSeq uint64
	result    *ResultRecord
	canceled  bool
	cancelSeq uint64
}

// Recover rebuilds the engine from the job log. It must run after
// Store.Open and before Start and the first Submit: recovered jobs reclaim
// their original IDs, and re-submitted jobs are placed on the (not yet
// consumed) queue. The log is compacted to the live image afterwards, so it
// does not grow across restarts. The returned slice describes every
// recovered job, re-submitted ones first marked Resumed.
func (e *Engine) Recover() ([]RecoveredJob, error) {
	byID := make(map[string]*replayedJob)
	var order []string
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
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		if rec.Kind == WALMark {
			// Compaction high-water marker: restore the counters even though
			// the records that produced them are gone.
			if rec.JobSeq > maxJobSeq {
				maxJobSeq = rec.JobSeq
			}
			return nil
		}
		rj := byID[rec.JobID]
		if rj == nil {
			rj = &replayedJob{id: rec.JobID}
			byID[rec.JobID] = rj
			order = append(order, rec.JobID)
		}
		switch rec.Kind {
		case WALJob:
			if rec.Spec != nil {
				rj.spec = *rec.Spec
			}
			rj.seq = rec.JobSeq
			// The default-tenant migration: job records written before
			// multi-tenancy carry no tenant and are adopted into
			// DefaultTenant, matching Store.Open's adoption of untagged
			// table metadata.
			rj.tenant = rec.Tenant
			if rj.tenant == "" {
				rj.tenant = DefaultTenant
			}
			if rec.Created != nil {
				rj.created = *rec.Created
			}
			if rec.JobSeq > maxJobSeq {
				maxJobSeq = rec.JobSeq
			}
		case WALLevel:
			rj.levels = append(rj.levels, rec)
		case WALStatus:
			rj.status = rec.Status
			rj.statusSeq = rec.Seq
			rj.result = rec.Result
		case WALCancel:
			rj.canceled = true
			rj.cancelSeq = rec.Seq
		case WALDelete:
			rj.deleted = true
		}
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

	sort.SliceStable(order, func(i, k int) bool { return byID[order[i]].seq < byID[order[k]].seq })

	var live []*WALRecord
	if maxSeq > 0 || maxJobSeq > 0 {
		// Lead the compacted log with the high-water marker, so counters
		// survive even if every job below was deleted or compacted away.
		live = append(live, &WALRecord{Seq: maxSeq, Kind: WALMark, JobSeq: maxJobSeq})
	}
	var recovered []RecoveredJob
	var interrupted []*job
	for _, id := range order {
		rj := byID[id]
		if rj.deleted || rj.spec.Type == "" {
			// Retracted, or a stray record without its submission (e.g. the
			// job record itself was the torn final line): drop it.
			continue
		}
		if rj.status == nil && rj.canceled {
			// Cancelled, but the crash beat the worker to the terminal
			// record: synthesize the canceled terminal state the worker
			// would have written, instead of re-running an explicitly
			// cancelled job. Checkpoints past the cancel are trimmed below,
			// so the preserved level series is the same strict prefix a
			// live cancel keeps.
			rj.statusSeq = rj.cancelSeq
			now := time.Now()
			rj.status = &Status{
				ID: rj.id, Tenant: rj.tenant, Type: rj.spec.Type, State: StateCanceled,
				Error: "canceled", Created: rj.created, Finished: &now,
			}
			for _, rec := range rj.levels {
				if rec.Level != nil && rec.Seq < rj.cancelSeq {
					rj.status.Levels = append(rj.status.Levels, *rec.Level)
				}
			}
		}
		if rj.statusSeq > 0 {
			// Drop checkpoints recorded after the terminal record: a cancel
			// racing the last in-flight level can append one stray WALLevel
			// the live stream never delivered, and replaying it would make
			// the rebuilt event feed disagree with Status.Levels.
			kept := rj.levels[:0]
			for _, rec := range rj.levels {
				if rec.Seq < rj.statusSeq {
					kept = append(kept, rec)
				}
			}
			rj.levels = kept
		}
		created := rj.created
		// The record is re-encoded from this build's Spec, so it carries
		// this build's version, as walImage's does.
		live = append(live, &WALRecord{
			Seq: firstSeqOf(rj), Kind: WALJob, Ver: walSpecVersion, JobID: rj.id,
			JobSeq: rj.seq, Tenant: rj.tenant, Spec: &rj.spec, Created: &created,
		})
		// Checkpoints stay in the compacted log for every job: interrupted
		// jobs resume from them after a second crash, and terminal jobs keep
		// their event feed — and therefore their subscribers' resume cursors
		// — valid across any number of restarts.
		for i := range rj.levels {
			rec := rj.levels[i]
			live = append(live, &rec)
		}
		if rj.status != nil && rj.status.State.Terminal() {
			j := e.rebuildTerminal(rj)
			live = append(live, &WALRecord{
				Seq: rj.statusSeq, Kind: WALStatus, JobID: rj.id,
				Status: rj.status, Result: rj.result,
			})
			recovered = append(recovered, RecoveredJob{Status: j.snapshot()})
			continue
		}
		j := e.rebuildInterrupted(rj)
		interrupted = append(interrupted, j)
		recovered = append(recovered, RecoveredJob{Status: j.snapshot(), Resumed: true})
	}
	if err := e.opts.JobLog.CompactWAL(live); err != nil {
		return nil, fmt.Errorf("service: compact job log: %w", err)
	}
	e.sortFinished()
	for _, j := range interrupted {
		e.resubmit(j)
	}
	return recovered, nil
}

// firstSeqOf reconstructs the sequence number of a job's submission record:
// strictly below its first checkpoint and terminal record, preserving WAL
// kind ordering through compaction. The exact value is otherwise
// insignificant — cursors only ever name level and status records.
func firstSeqOf(rj *replayedJob) uint64 {
	if len(rj.levels) > 0 && rj.levels[0].Seq > 0 {
		return rj.levels[0].Seq - 1
	}
	if rj.statusSeq > 0 {
		return rj.statusSeq - 1
	}
	return 0
}

// rebuildTerminal restores a finished job into the engine's log: status,
// per-level events (for Stream replay), and — for done jobs — the Result,
// its table reloaded from the blob space. A missing or unreadable blob
// degrades to a result-less job rather than failing recovery.
func (e *Engine) rebuildTerminal(rj *replayedJob) *job {
	j := &job{
		status: *rj.status,
		seq:    rj.seq,
		spec:   rj.spec,
		done:   make(chan struct{}),
		notify: make(chan struct{}),
	}
	if j.status.Tenant == "" {
		// Terminal records written before multi-tenancy: the migrated
		// tenant from the job record carries over.
		j.status.Tenant = rj.tenant
	}
	st := j.status
	j.termRec = &WALRecord{Seq: rj.statusSeq, Kind: WALStatus, JobID: rj.id, Status: &st, Result: rj.result}
	close(j.done)
	j.events = eventsFromCheckpoints(rj)
	if n := len(rj.status.Levels) - len(j.events); n > 0 && len(j.events) > 0 {
		// The durable log carries only a truncated tail of the level series
		// (online compaction ran after event truncation): restore the base
		// offset so resuming subscribers keep getting the same synthesized
		// result replay they would have gotten before the restart.
		j.eventsBase = n
		if s := j.events[0].Seq; s > 0 {
			j.droppedSeq = s - 1
		}
	}
	j.resultRec = rj.result
	if rj.status.State == StateDone && rj.result != nil {
		res := &Result{
			Levels:     rj.result.Levels,
			OptimalK:   rj.result.OptimalK,
			Hmax:       rj.result.Hmax,
			Tp:         rj.result.Tp,
			Tu:         rj.result.Tu,
			Evaluated:  rj.result.Evaluated,
			Partial:    rj.result.Partial,
			Before:     rj.result.Before,
			After:      rj.result.After,
			Assessment: rj.result.Assessment,
		}
		if rj.result.TableHash != "" {
			if t, err := e.store.Blob(rj.result.TableHash); err == nil {
				res.Table = t
			}
		}
		j.result = res
		e.reseedCache(j, res)
	}
	// Recovered terminal jobs obey the same replay-buffer bound as live ones.
	// The job is not yet visible, but truncation wants the lock held.
	j.mu.Lock()
	j.truncateEventsLocked(e.opts.MaxJobEvents)
	j.mu.Unlock()
	e.mu.Lock()
	e.jobs[j.status.ID] = j
	e.finished = append(e.finished, j)
	e.mu.Unlock()
	return j
}

// eventsFromCheckpoints rebuilds the per-job event feed from WAL level
// records, preserving the original sequence numbers so reconnecting
// subscribers' cursors stay valid across the restart.
func eventsFromCheckpoints(rj *replayedJob) []Event {
	if len(rj.levels) == 0 {
		return nil
	}
	evs := make([]Event, 0, len(rj.levels))
	for _, rec := range rj.levels {
		evs = append(evs, Event{
			Type:        EventLevel,
			Seq:         rec.Seq,
			Job:         rj.id,
			Level:       rec.Level,
			Calibration: rec.Calibration,
			Progress:    rec.Progress,
			Source:      rec.Source,
		})
	}
	return evs
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

// rebuildInterrupted reconstructs an interrupted job as pending, seeded
// with its checkpointed levels: Status.Levels and the event feed replay
// them, Status.Progress is the last one's, and the fred-sweep's run holds
// them (runFREDSweep), computing only the levels it lacks. Every checkpoint
// counts, whatever order it was written in and whether or not an append was
// dropped before it, so a range sweep, an adaptive one and a gapped one
// resume alike.
func (e *Engine) rebuildInterrupted(rj *replayedJob) *job {
	j := e.newJob(Status{
		ID: rj.id, Tenant: rj.tenant, Type: rj.spec.Type, State: StatePending,
		Created: rj.created, Resumed: true,
	}, rj.seq, rj.spec)
	for _, rec := range rj.levels {
		if rec.Level != nil {
			j.status.Levels = append(j.status.Levels, *rec.Level)
			j.status.Progress = rec.Progress
		}
	}
	j.events = eventsFromCheckpoints(rj)
	e.mu.Lock()
	e.jobs[j.status.ID] = j
	e.mu.Unlock()
	return j
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
