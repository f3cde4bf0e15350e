package service_test

// Ops-plane tests: admission control (per-tenant and global pending bounds,
// typed overload errors, cache-hit bypass), terminal event-buffer truncation
// with cursor-safe stream replay, and recovery-resubmit error surfacing.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro"
	"repro/internal/service"
)

func TestAdmissionPerTenantBound(t *testing.T) {
	// Not started: submissions stay pending, so the bound is deterministic.
	e, p, _, _ := testFixture(t, service.Options{Workers: 1, QueueDepth: 16, MaxPendingPerTenant: 2})
	for k := 2; k <= 3; k++ {
		if _, err := e.Submit(service.DefaultTenant, service.Spec{Type: service.JobAnonymize, Table: p, K: k}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := e.Submit(service.DefaultTenant, service.Spec{Type: service.JobAnonymize, Table: p, K: 4})
	var ov *service.OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("got %v, want *OverloadError", err)
	}
	if ov.Scope != "tenant" || ov.Limit != 2 || ov.Tenant != service.DefaultTenant {
		t.Fatalf("overload error %+v, want tenant-scope limit 2", ov)
	}
	if ov.RetryAfter < time.Second || ov.RetryAfter > time.Minute {
		t.Fatalf("RetryAfter %v outside [1s, 60s]", ov.RetryAfter)
	}
	// The refinement contract: existing ErrQueueFull checks keep matching.
	if !errors.Is(err, service.ErrQueueFull) {
		t.Fatal("OverloadError must satisfy errors.Is(err, ErrQueueFull)")
	}
	stats := e.Stats()
	if stats.JobsPending != 2 || stats.JobsShed != 1 {
		t.Fatalf("stats pending=%d shed=%d, want 2 and 1", stats.JobsPending, stats.JobsShed)
	}
}

func TestAdmissionGlobalBound(t *testing.T) {
	e, p, _, _ := testFixture(t, service.Options{Workers: 1, QueueDepth: 1})
	if _, err := e.Submit(service.DefaultTenant, service.Spec{Type: service.JobAnonymize, Table: p, K: 2}); err != nil {
		t.Fatal(err)
	}
	_, err := e.Submit(service.DefaultTenant, service.Spec{Type: service.JobAnonymize, Table: p, K: 3})
	var ov *service.OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("got %v, want *OverloadError", err)
	}
	if ov.Scope != "global" || ov.Limit != 1 {
		t.Fatalf("overload error %+v, want global-scope limit 1", ov)
	}
}

func TestAdmissionCacheHitBypass(t *testing.T) {
	e, p, q, _ := testFixture(t, service.Options{
		Workers: 1, SweepWorkers: 1, QueueDepth: 1, MaxPendingPerTenant: 1, CacheSize: 8,
	})
	e.Start()
	cachedSpec := service.Spec{Type: service.JobAnonymize, Table: p, K: 2}
	st, err := e.Submit(service.DefaultTenant, cachedSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, st.ID)

	// Saturate the queue: keep offering sweeps until one is refused. While
	// that refusal state holds, the cached spec must still be admitted —
	// cache hits consume no queue slot. Each offer has its own cache key:
	// once an identical sweep finished, every later offer would be a cache
	// hit, admitted without a queue slot, and the queue would never fill.
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; ; i++ {
		if time.Now().After(deadline) {
			t.Fatal("queue never saturated")
		}
		spec := sweepSpec(p, q)
		spec.SensitiveHi = 160000 + float64(i)
		_, err := e.Submit(service.DefaultTenant, spec)
		if errors.Is(err, service.ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	hit, err := e.Submit(service.DefaultTenant, cachedSpec)
	if err != nil {
		t.Fatalf("cached submission refused under overload: %v", err)
	}
	if !hit.Cached {
		t.Fatalf("expected a cache hit, got state %s cached=%v", hit.State, hit.Cached)
	}
}

// TestEventTruncationKeepsCursorsValid is the satellite acceptance: a
// terminal job's event buffer is truncated to the retention tail, a
// subscriber holding a still-retained cursor resumes exactly, and a
// subscriber behind the truncation point gets the synthesized result replay
// — the full level series — rather than a gap or a stall.
func TestEventTruncationKeepsCursorsValid(t *testing.T) {
	const keep = 3
	e, p, q, _ := testFixture(t, service.Options{Workers: 1, SweepWorkers: 1, MaxJobEvents: keep})
	e.Start()
	st, err := e.Submit(service.DefaultTenant, sweepSpec(p, q)) // levels 2..10
	if err != nil {
		t.Fatal(err)
	}

	waitDone(t, e, st.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	countLevels := func(after uint64) (levels int, statusSeq uint64) {
		ch, err := e.StreamAfter(ctx, service.DefaultTenant, st.ID, after)
		if err != nil {
			t.Fatal(err)
		}
		for ev := range ch {
			switch ev.Type {
			case service.EventLevel:
				levels++
			case service.EventStatus:
				statusSeq = ev.Seq
			}
		}
		return levels, statusSeq
	}

	// Fresh subscriber: the tail alone can't serve it, so the stream
	// synthesizes the FULL 9-level series from the result (seq 0, the
	// cache-hit replay contract), then the status event. The status seq is
	// the terminal WAL record; with every append durable and no skips, the
	// nine level records immediately precede it — which pins the retained
	// tail's seqs without racing a live subscription.
	n, termSeq := countLevels(0)
	if n != 9 || termSeq == 0 {
		t.Fatalf("fresh subscriber got %d levels (status seq %d), want 9 with a terminal seq", n, termSeq)
	}
	// The last level's record immediately precedes the terminal record.
	levelSeq := func(i int) uint64 { return termSeq - uint64(10-i) } // i = 1..9

	// Cursor at the first RETAINED level (tail keeps the last 3 of 9):
	// resume skips ahead in the tail and delivers exactly the 2 remaining
	// levels — no synthesized duplicates, cursor stays exact.
	if n, _ := countLevels(levelSeq(7)); n != 2 {
		t.Fatalf("tail-cursor resume delivered %d levels, want 2", n)
	}
	if n, _ := countLevels(levelSeq(9)); n != 0 {
		t.Fatalf("caught-up cursor delivered %d levels, want 0", n)
	}

	// Cursor BEHIND the truncation point (after the 2nd level, but levels
	// 1..6 were dropped): the tail cannot prove what the subscriber missed,
	// so it falls back to the full synthesized replay rather than silently
	// gapping.
	if n, _ := countLevels(levelSeq(2)); n != 9 {
		t.Fatalf("pre-truncation cursor delivered %d levels, want the full 9-level replay", n)
	}
}

// fakeJobLog replays canned records and accepts appends, standing in for a
// durable log whose recovered jobs cannot be resubmitted.
type fakeJobLog struct {
	records []service.WALRecord
}

func (f *fakeJobLog) AppendWAL(*service.WALRecord) error    { return nil }
func (f *fakeJobLog) CompactWAL([]*service.WALRecord) error { return nil }
func (f *fakeJobLog) SyncWAL() error                        { return nil }
func (f *fakeJobLog) ReplayWAL(fn func(service.WALRecord) error) error {
	for _, rec := range f.records {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// TestRecoveryResubmitFailureSurfaced: a WAL image holding a running job
// whose input table no longer exists cannot be resubmitted; recovery must
// carry on and surface the failure in EngineStats (and thence healthz)
// instead of dropping it on the floor.
func TestRecoveryResubmitFailureSurfaced(t *testing.T) {
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 30})
	if err != nil {
		t.Fatal(err)
	}
	store := service.NewStore()
	if _, err := store.Put(service.DefaultTenant, "P", sc.P); err != nil {
		t.Fatal(err)
	}
	created := time.Now().UTC()
	log := &fakeJobLog{records: []service.WALRecord{{
		Seq: 1, Kind: service.WALJob, JobID: "job-1", JobSeq: 1,
		Tenant: service.DefaultTenant,
		Spec: &service.Spec{
			Type: service.JobFREDSweep, Table: "tbl-gone", Aux: "",
			MinK: 2, MaxK: 6, SensitiveLo: 40000, SensitiveHi: 160000,
		},
		Created: &created,
	}}}
	e := service.NewEngine(store, service.Options{Workers: 1, JobLog: log})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})
	if _, err := e.Recover(); err != nil {
		t.Fatalf("recovery must survive a failed resubmit, got %v", err)
	}
	e.Start()
	stats := e.Stats()
	if len(stats.RecoveryErrors) != 1 {
		t.Fatalf("RecoveryErrors = %v, want exactly one entry", stats.RecoveryErrors)
	}
	// The failed job is terminal (failed), not silently vanished.
	st, err := e.Job(service.DefaultTenant, "job-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateFailed {
		t.Fatalf("unresubmittable job state %s, want failed", st.State)
	}
}
