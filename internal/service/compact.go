package service

import (
	"fmt"
	"sort"
)

// This file implements online WAL compaction: CompactLog rewrites the
// durable job log down to its live image while the engine is serving, so a
// long-lived process does not depend on restarts (Engine.Recover) to shrink
// its log. The write path already serializes every append through walMu;
// CompactLog holds the same mutex for the whole rewrite, so the compacted
// image plus subsequent appends is exactly the record sequence a restart
// would have produced.

// CompactLog rewrites the job log to the live image of the engine's current
// state: for every job still in the log, its submission record, retained
// level checkpoints (with their original sequence numbers, so resume cursors
// survive), a journaled-but-unfinished cancellation if any, and the terminal
// status + result projection. Jobs deleted or evicted from the log simply do
// not appear. Appends are blocked for the duration; level checkpoints (the
// only high-frequency appends) block on walMu anyway, so this adds latency,
// not a new failure mode.
func (e *Engine) CompactLog() error {
	e.walMu.Lock()
	defer e.walMu.Unlock()

	e.mu.RLock()
	jobs := make([]*job, 0, len(e.jobs))
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	maxJobSeq := e.seq
	e.mu.RUnlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })

	live := []*WALRecord{{Seq: e.eventSeq, Kind: WALMark, JobSeq: maxJobSeq}}
	for _, j := range jobs {
		live = append(live, j.walImage()...)
	}
	if err := e.opts.JobLog.CompactWAL(live); err != nil {
		return fmt.Errorf("service: compact job log: %w", err)
	}
	return nil
}

// walImage renders one job's live WAL records, in the same kind order the
// original appends used (job, levels, cancel, status). Sequence numbers of
// level and status records are the original durable ones — they are the
// resume cursors subscribers hold. Events without a durable seq (failed
// appends, skips) are not re-journaled, matching what recovery would keep.
func (j *job) walImage() []*WALRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	created := st.Created
	out := []*WALRecord{{
		Seq: j.firstSeqLocked(), Kind: WALJob, Ver: walSpecVersion,
		JobID: st.ID, JobSeq: j.seq, Tenant: st.Tenant, Spec: &j.spec, Created: &created,
	}}
	for i := range j.events {
		ev := &j.events[i]
		if ev.Type != EventLevel || ev.Seq == 0 {
			continue
		}
		out = append(out, &WALRecord{
			Seq: ev.Seq, Kind: WALLevel, JobID: st.ID,
			Level: ev.Level, Calibration: ev.Calibration,
			Progress: ev.Progress, Source: ev.Source,
		})
	}
	if j.termRec != nil {
		// Terminal — or claimed, with its terminal record durable and the
		// state not yet published.
		out = append(out, j.termRec)
	} else if j.cancelRequested {
		// Cancel journaled, worker still unwinding: preserve the record, or
		// a crash before the terminal append would re-run a canceled job.
		out = append(out, &WALRecord{Seq: j.cancelSeq, Kind: WALCancel, JobID: st.ID})
	}
	return out
}

// firstSeqLocked reconstructs a plausible sequence number for the job's
// submission record, strictly below its first retained checkpoint and
// terminal record, so compaction keeps the log's kind order. The exact value
// is otherwise insignificant: cursors only ever name level and status
// records. Callers hold j.mu.
func (j *job) firstSeqLocked() uint64 {
	if j.droppedSeq > 0 {
		return j.droppedSeq // truncated prefix: anything below the tail works
	}
	for i := range j.events {
		if j.events[i].Seq > 0 {
			return j.events[i].Seq - 1
		}
	}
	if j.termRec != nil && j.termRec.Seq > 0 {
		return j.termRec.Seq - 1
	}
	return 0
}
