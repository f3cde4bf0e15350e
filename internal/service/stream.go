package service

import (
	"context"
)

// EventType discriminates streamed job events.
type EventType string

// The event types. A job's stream is zero or more level events followed by
// exactly one status event carrying the terminal snapshot.
const (
	// EventLevel reports one completed sweep level, tagged with its Source:
	// ascending k for range sweeps; for adaptive jobs warm levels first,
	// then computed levels in ascending k (a budgeted sweep without
	// thresholds evaluates endpoints, then widest-gap midpoints). The
	// planner's utility-only probes are never streamed. A crash-resumed
	// job's feed replays its checkpointed levels first, in the order they
	// were checkpointed.
	EventLevel EventType = "level"
	// EventSkip reports a contiguous run of requested levels an adaptive
	// sweep decided not to evaluate, with the reason: bisection (above the
	// checked Tu crossing), deadline or infeasible. Skip events have no durable identity (seq 0) and are
	// always replayed.
	EventSkip EventType = "skip"
	// EventStatus carries the terminal status snapshot and always closes the
	// stream.
	EventStatus EventType = "status"
)

// Skip is the payload of an EventSkip: the inclusive level range and why the
// planner skipped it.
type Skip struct {
	FromK  int    `json:"from_k"`
	ToK    int    `json:"to_k"`
	Reason string `json:"reason"`
}

// Calibration carries the running threshold calibration — CalibrateThresholds
// over the levels streamed so far. It accompanies level events once at least
// three levels have completed, so a subscriber watching a long sweep sees
// where the thresholds are converging before the sweep ends.
type Calibration struct {
	Tp float64 `json:"tp"`
	Tu float64 `json:"tu"`
}

// Event is one incremental update from a job's execution, delivered through
// Engine.Stream and the GET /v1/jobs/{id}/events endpoint.
type Event struct {
	Type EventType `json:"type"`
	// Seq is the engine-wide monotonic event sequence number, shared with
	// the durable job log: it is the resume cursor for Last-Event-ID /
	// ?after= reconnects. Zero on synthesized replay events (cache hits),
	// which have no durable identity and are always resent.
	Seq uint64 `json:"seq,omitempty"`
	// Job is the emitting job's ID.
	Job string `json:"job"`
	// Level is the completed level for level events. Its Candidate flag is
	// authoritative only when the job's thresholds were explicit; under
	// auto-calibration candidacy is decided once the sweep completes and the
	// terminal result carries the final flags.
	Level *LevelSummary `json:"level,omitempty"`
	// Source distinguishes how a level event's numbers were obtained:
	// "" (computed by this job) or "warm" (seeded from the cross-job level
	// index).
	Source string `json:"source,omitempty"`
	// Skip is the skipped range, set only on skip events.
	Skip *Skip `json:"skip,omitempty"`
	// Calibration is the running (Tp, Tu) over the prefix, for level events
	// with ≥ 3 levels behind them.
	Calibration *Calibration `json:"calibration,omitempty"`
	// Progress mirrors Status.Progress at emission time.
	Progress float64 `json:"progress,omitempty"`
	// Status is the terminal snapshot, set only on status events.
	Status *Status `json:"status,omitempty"`
}

// Stream subscribes to a job's event feed. The returned channel first
// replays every event the job has already recorded (so late subscribers see
// the full per-level series), then delivers live events as levels complete,
// then a final status event with the terminal snapshot, and closes. For a
// job that is already terminal — including cache hits, whose levels were
// never streamed — the recorded or result-derived levels are replayed before
// the status event. Cancelling ctx detaches the subscriber; the job itself
// is unaffected. The job must live in tenant's namespace; foreign IDs are
// not found.
func (e *Engine) Stream(ctx context.Context, tenant, id string) (<-chan Event, error) {
	return e.StreamAfter(ctx, tenant, id, 0)
}

// StreamAfter is Stream with a resume cursor: recorded events whose sequence
// number is at or below after are skipped, so a reconnecting client that
// remembers the last seq it processed (the SSE Last-Event-ID) resumes
// without the replay. Synthesized replay events (seq 0, cache hits) and the
// terminal status event are always delivered.
func (e *Engine) StreamAfter(ctx context.Context, tenant, id string, after uint64) (<-chan Event, error) {
	j, err := e.get(tenant, id)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan Event, 8)
	go func() {
		defer close(out)
		i := 0           // absolute index into the job's full event history
		lastSeq := after // highest durable seq this subscriber has consumed
		levelsSeen := 0  // level events delivered, for gap-free synthesis
		send := func(ev Event) bool {
			select {
			case out <- ev:
				return true
			case <-ctx.Done():
				return false
			}
		}
		for {
			w := j.eventWindow(i)
			if i < w.base {
				// Events this subscriber has not consumed were truncated away
				// (terminal jobs only — see truncateEvents). If everything
				// unseen is still in the retained tail, skip ahead and let the
				// cursor filter below do its usual work; otherwise synthesize
				// the level series from the result — the same replay the
				// cache-hit path uses — skipping levels already delivered.
				if lastSeq > 0 && lastSeq >= w.droppedSeq {
					i = w.base
					continue
				}
				synth := j.replayEvents()
				for _, ev := range synth[min(levelsSeen, len(synth)):] {
					if !send(ev) {
						return
					}
				}
				levelsSeen = len(synth)
				i = w.total
				continue
			}
			evs := w.evs
			if w.terminal && i == 0 && len(evs) == 0 {
				// Terminal with nothing recorded (a cache hit, or a job that
				// finished before event recording existed): synthesize the
				// level series from the result so the stream stays useful.
				evs = j.replayEvents()
			}
			for _, ev := range evs {
				i++
				if ev.Seq > lastSeq {
					lastSeq = ev.Seq
				}
				if ev.Type == EventLevel {
					levelsSeen++
				}
				if after > 0 && ev.Seq != 0 && ev.Seq <= after {
					continue
				}
				if !send(ev) {
					return
				}
			}
			if w.terminal {
				j.mu.Lock()
				st := j.status
				var seq uint64
				if j.termRec != nil {
					seq = j.termRec.Seq
				}
				j.mu.Unlock()
				send(Event{Type: EventStatus, Seq: seq, Job: st.ID, Progress: st.Progress, Status: &st})
				return
			}
			select {
			case <-w.notify:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}

// eventWindow is one consistent snapshot of a job's event log as seen from
// absolute index i: the retained events at i and beyond, the absolute index
// range the in-memory log covers, and the truncation high-water mark.
type eventWindow struct {
	evs        []Event // retained events from index max(i, base)
	base       int     // absolute index of the first retained event
	total      int     // absolute index just past the last recorded event
	droppedSeq uint64  // highest seq among truncated events (0 if none)
	terminal   bool
	notify     <-chan struct{}
}

// eventWindow snapshots the log for a subscriber at absolute index i.
// Retained events are immutable and truncation replaces the backing slice,
// so the returned slice is safe to read without the lock.
func (j *job) eventWindow(i int) eventWindow {
	j.mu.Lock()
	defer j.mu.Unlock()
	w := eventWindow{
		base:       j.eventsBase,
		total:      j.eventsBase + len(j.events),
		droppedSeq: j.droppedSeq,
		terminal:   j.status.State.Terminal(),
		notify:     j.notify,
	}
	if i >= j.eventsBase {
		w.evs = j.events[i-j.eventsBase:]
	}
	return w
}

// truncateEventsLocked drops a terminal job's event-log prefix beyond keep
// events (a negative keep retains everything). It runs only once the
// terminal WAL record (and result blob, on durable stores) landed, so
// nothing is lost: subscribers behind the truncation point fall back to the
// synthesized result replay, which the cache-hit path already exercises.
// Callers hold j.mu and wake parked subscribers afterwards (publish does).
func (j *job) truncateEventsLocked(keep int) {
	if keep < 0 {
		return
	}
	drop := len(j.events) - keep
	if drop <= 0 {
		return
	}
	for _, ev := range j.events[:drop] {
		if ev.Seq > j.droppedSeq {
			j.droppedSeq = ev.Seq
		}
	}
	tail := make([]Event, keep)
	copy(tail, j.events[drop:])
	j.events = tail
	j.eventsBase += drop
}

// replayEvents synthesizes level events from a terminal job's result — or,
// for result-less terminal jobs (canceled, failed), from the status's level
// prefix — for subscribers whose position in the log was never recorded
// (cache hits) or was truncated away.
func (j *job) replayEvents() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	levels := j.status.Levels
	var cal *Calibration
	if j.result != nil && len(j.result.Levels) > 0 {
		levels = j.result.Levels
		cal = &Calibration{Tp: j.result.Tp, Tu: j.result.Tu}
	}
	if len(levels) == 0 {
		return nil
	}
	evs := make([]Event, len(levels))
	for i := range levels {
		lev := levels[i]
		evs[i] = Event{
			Type:        EventLevel,
			Job:         j.status.ID,
			Level:       &lev,
			Calibration: cal,
			Progress:    j.status.Progress,
		}
	}
	return evs
}

// recordLevel checkpoints a completed sweep level: the WAL record is
// appended first (durability before visibility — a level a subscriber has
// seen is a level recovery can replay), then the level is stored on the
// running job, progress advances, and the event is published to
// subscribers. It is a no-op once the job is terminal (a cancel can race
// the last in-flight level; the stray WAL checkpoint lands after the
// terminal record and recovery discards it, so the rebuilt event feed
// always agrees with Status.Levels).
func (e *Engine) recordLevel(j *job, ls LevelSummary, cal *Calibration, progress float64, source string) {
	lev := ls
	seq, err := e.appendWAL(&WALRecord{
		Kind:        WALLevel,
		JobID:       j.status.ID,
		Level:       &lev,
		Calibration: cal,
		Progress:    progress,
		Source:      source,
	})
	if err != nil {
		// The checkpoint never became durable, so the event must not carry
		// its sequence number: after a crash the recovered counter would
		// reissue it to a different event, and a client resuming from this
		// cursor would silently skip that event. Seq 0 means "no durable
		// identity — always resent", which is exactly right here.
		seq = 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.settledLocked() {
		return
	}
	j.status.Levels = append(j.status.Levels, ls)
	j.status.Progress = progress
	j.events = append(j.events, Event{
		Type:        EventLevel,
		Seq:         seq,
		Job:         j.status.ID,
		Level:       &lev,
		Calibration: cal,
		Progress:    progress,
		Source:      source,
	})
	j.broadcastLocked()
}

// recordSkip publishes a planner skip range to subscribers. Skips are not
// WAL-checkpointed — an adaptive job interrupted by a crash resumes from its
// level checkpoints and re-derives its skip ranges when its plan completes —
// so the event carries no durable sequence number and is always replayed to
// reconnecting subscribers.
func (e *Engine) recordSkip(j *job, sk Skip) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.settledLocked() {
		return
	}
	j.events = append(j.events, Event{
		Type: EventSkip,
		Job:  j.status.ID,
		Skip: &sk,
	})
	j.broadcastLocked()
}

// broadcastLocked wakes every subscriber blocked on the current notify
// channel. Callers must hold j.mu.
func (j *job) broadcastLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}
