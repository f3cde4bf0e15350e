package service_test

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/service"
)

// testFixture stores the standard university scenario's P and Q and returns
// the engine plus the table IDs and the scenario, for jobs that need real
// attack inputs.
func testFixture(t *testing.T, opts service.Options) (*service.Engine, string, string, *repro.Scenario) {
	t.Helper()
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 30})
	if err != nil {
		t.Fatal(err)
	}
	store := service.NewStore()
	pInfo, err := store.Put(service.DefaultTenant, "P", sc.P)
	if err != nil {
		t.Fatal(err)
	}
	qInfo, err := store.Put(service.DefaultTenant, "Q", sc.Q)
	if err != nil {
		t.Fatal(err)
	}
	e := service.NewEngine(store, opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})
	return e, pInfo.ID, qInfo.ID, sc
}

func waitDone(t *testing.T, e *service.Engine, id string) service.Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := e.Wait(ctx, service.DefaultTenant, id)
	if err != nil {
		t.Fatalf("wait %s: %v (state %s)", id, err, st.State)
	}
	return st
}

func sweepSpec(p, q string) service.Spec {
	return service.Spec{
		Type: service.JobFREDSweep, Table: p, Aux: q,
		MinK: 2, MaxK: 10,
		SensitiveLo: 40000, SensitiveHi: 160000,
	}
}

func TestSubmitValidation(t *testing.T) {
	e, p, q, _ := testFixture(t, service.Options{Workers: 1})
	for name, spec := range map[string]service.Spec{
		"no type":       {Table: p},
		"unknown type":  {Type: "mine-bitcoin", Table: p},
		"no table":      {Type: service.JobAnonymize, K: 2},
		"unknown table": {Type: service.JobAnonymize, Table: "tbl-404", K: 2},
		"unknown aux":   {Type: service.JobAttack, Table: p, Aux: "tbl-404", K: 2, SensitiveLo: 1, SensitiveHi: 2},
		"bad scheme":    {Type: service.JobAnonymize, Table: p, K: 2, Scheme: "rot13"},
		"k too small":   {Type: service.JobAnonymize, Table: p, K: 1},
		"bad range":     {Type: service.JobFREDSweep, Table: p, Aux: q, MinK: 9, MaxK: 3, SensitiveLo: 1, SensitiveHi: 2},
		"no sensitive":  {Type: service.JobAttack, Table: p, Aux: q, K: 2},
	} {
		if _, err := e.Submit(service.DefaultTenant, spec); err == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}
}

// TestSubmitRefusesUncalibratableSweep: a fred-sweep without thresholds
// calibrates them from its levels, so one that reaches fewer than
// core.MinCalibrationLevels (a two-level range or k_set, a k_set whose
// third level exceeds the rows, or a range capped by a 3-row table) is
// refused at submit instead of failing after computing them. The same
// selections with explicit thresholds run.
func TestSubmitRefusesUncalibratableSweep(t *testing.T) {
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 30})
	if err != nil {
		t.Fatal(err)
	}
	head := func(tb *dataset.Table) *dataset.Table {
		row := 0
		return tb.Select(func([]dataset.Value) bool { row++; return row <= 3 })
	}
	store := service.NewStore()
	var ids []string
	for _, tb := range []*dataset.Table{sc.P, sc.Q, head(sc.P), head(sc.Q)} {
		info, err := store.Put(service.DefaultTenant, "t", tb)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	e := service.NewEngine(store, service.Options{Workers: 1})
	e.Start()
	t.Cleanup(func() { e.Shutdown(context.Background()) })
	sweep := func(table, aux string, minK, maxK int, set ...int) service.Spec {
		return service.Spec{
			Type: service.JobFREDSweep, Table: table, Aux: aux,
			MinK: minK, MaxK: maxK, KSet: set,
			SensitiveLo: 40000, SensitiveHi: 160000,
		}
	}
	for name, spec := range map[string]service.Spec{
		"range 2..3":           sweep(ids[0], ids[1], 2, 3),
		"k_set {2, 3}":         sweep(ids[0], ids[1], 0, 0, 2, 3),
		"k_set {2, 4, 40}":     sweep(ids[0], ids[1], 0, 0, 2, 4, 40),
		"3-row table at 2..16": sweep(ids[2], ids[3], 2, 16),
	} {
		if _, err := e.Submit(service.DefaultTenant, spec); err == nil || !strings.Contains(err.Error(), "calibration needs ≥ 3 levels") {
			t.Errorf("%s: Submit error %v, want a refusal naming the 3-level floor", name, err)
		}
		spec.Tp, spec.Tu = 1, 1e-12
		st, err := e.Submit(service.DefaultTenant, spec)
		if err != nil {
			t.Fatalf("%s with thresholds: %v", name, err)
		}
		if st = waitDone(t, e, st.ID); st.State != service.StateDone {
			t.Errorf("%s with thresholds: state %s (%s), want done", name, st.State, st.Error)
		}
	}
}

func TestAnonymizeJob(t *testing.T) {
	e, p, _, sc := testFixture(t, service.Options{Workers: 2})
	e.Start()
	st, err := e.Submit(service.DefaultTenant, service.Spec{Type: service.JobAnonymize, Table: p, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, e, st.ID)
	if st.State != service.StateDone {
		t.Fatalf("state %s (%s), want done", st.State, st.Error)
	}
	res, err := e.Result(service.DefaultTenant, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != sc.P.NumRows() {
		t.Fatalf("release has %d rows, want %d", res.Table.NumRows(), sc.P.NumRows())
	}
	// The sensitive column must be suppressed in the release.
	for _, c := range res.Table.Schema().IndicesOf(dataset.Sensitive) {
		for r := 0; r < res.Table.NumRows(); r++ {
			if res.Table.Cell(r, c).Kind() != dataset.Null {
				t.Fatalf("row %d: sensitive cell not suppressed: %s", r, res.Table.Cell(r, c))
			}
		}
	}
}

func TestAttackAndAssessJobs(t *testing.T) {
	e, p, q, _ := testFixture(t, service.Options{Workers: 2})
	e.Start()

	atkSt, err := e.Submit(service.DefaultTenant, service.Spec{
		Type: service.JobAttack, Table: p, Aux: q, K: 4,
		SensitiveLo: 40000, SensitiveHi: 160000,
	})
	if err != nil {
		t.Fatal(err)
	}
	asSt, err := e.Submit(service.DefaultTenant, service.Spec{
		Type: service.JobAssess, Table: p, Aux: q, K: 4,
		SensitiveLo: 40000, SensitiveHi: 160000,
	})
	if err != nil {
		t.Fatal(err)
	}

	atk := waitDone(t, e, atkSt.ID)
	if atk.State != service.StateDone {
		t.Fatalf("attack state %s (%s)", atk.State, atk.Error)
	}
	if atk.Summary["after"] <= 0 || atk.Summary["before"] <= 0 {
		t.Fatalf("attack summary missing dissimilarities: %v", atk.Summary)
	}
	// Fusion must beat the no-fusion baseline: after < before.
	if atk.Summary["after"] >= atk.Summary["before"] {
		t.Fatalf("fusion did not gain: before %g, after %g", atk.Summary["before"], atk.Summary["after"])
	}

	as := waitDone(t, e, asSt.ID)
	if as.State != service.StateDone {
		t.Fatalf("assess state %s (%s)", as.State, as.Error)
	}
	res, err := e.Result(service.DefaultTenant, as.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assessment == nil || res.Assessment.Records != 30 {
		t.Fatalf("bad assessment: %+v", res.Assessment)
	}
}

func TestFREDSweepJobAndCache(t *testing.T) {
	e, p, q, _ := testFixture(t, service.Options{Workers: 2, SweepWorkers: 4})
	e.Start()

	st, err := e.Submit(service.DefaultTenant, sweepSpec(p, q))
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, e, st.ID)
	if st.State != service.StateDone {
		t.Fatalf("state %s (%s), want done", st.State, st.Error)
	}
	if st.Cached {
		t.Fatal("first sweep must not be a cache hit")
	}
	optK := int(st.Summary["optimal_k"])
	if optK < 2 || optK > 10 {
		t.Fatalf("optimal k %d outside the swept range", optK)
	}
	if st.Summary["levels"] < 3 {
		t.Fatalf("too few swept levels: %v", st.Summary)
	}
	res, err := e.Result(service.DefaultTenant, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table == nil || res.Table.NumRows() != 30 {
		t.Fatal("sweep result must carry the optimal release")
	}

	// An identical resubmission is served from the cache, instantly done.
	st2, err := e.Submit(service.DefaultTenant, sweepSpec(p, q))
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != service.StateDone || !st2.Cached {
		t.Fatalf("resubmission: state %s cached %v, want done from cache", st2.State, st2.Cached)
	}
	res2, err := e.Result(service.DefaultTenant, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res {
		t.Fatal("cache must return the shared result")
	}

	// A different config is a different cache key.
	other := sweepSpec(p, q)
	other.MaxK = 8
	st3, err := e.Submit(service.DefaultTenant, other)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Cached {
		t.Fatal("different config must miss the cache")
	}
	waitDone(t, e, st3.ID)
}

// TestFREDSweepMaxKAboveRowCount: a max_k far beyond the table (2⁴⁰ on 30
// rows) is capped at the row count before the level list is expanded — no
// scheme anonymizes n rows at k > n — so a range and an adaptive sweep both
// finish with exactly the series and decision of max_k = 30, instead of
// allocating a level per requested k.
func TestFREDSweepMaxKAboveRowCount(t *testing.T) {
	// No level index: every job computes its own series.
	e, p, q, _ := testFixture(t, service.Options{Workers: 1, LevelIndexSize: -1})
	e.Start()
	run := func(spec service.Spec) service.Status {
		t.Helper()
		st, err := e.Submit(service.DefaultTenant, spec)
		if err != nil {
			t.Fatal(err)
		}
		st = waitDone(t, e, st.ID)
		if st.State != service.StateDone {
			t.Fatalf("max_k=%d adaptive=%v: state %s (%s), want done", spec.MaxK, spec.Adaptive, st.State, st.Error)
		}
		return st
	}

	rangeSpec := sweepSpec(p, q)
	rangeSpec.MaxK = 30
	want := run(rangeSpec)
	adaptive := rangeSpec
	adaptive.Adaptive = true
	adaptive.Tu = want.Levels[4].Utility // k=6
	wantAdaptive := run(adaptive)

	for _, c := range []struct {
		spec service.Spec
		want service.Status
	}{{rangeSpec, want}, {adaptive, wantAdaptive}} {
		c.spec.MaxK = 1 << 40
		got := run(c.spec)
		if len(got.Levels) != len(c.want.Levels) {
			t.Fatalf("adaptive=%v: %d levels, want %d as with max_k=30", c.spec.Adaptive, len(got.Levels), len(c.want.Levels))
		}
		for i, a := range got.Levels {
			b := c.want.Levels[i]
			if a.K != b.K || a.Candidate != b.Candidate ||
				math.Float64bits(a.After) != math.Float64bits(b.After) ||
				math.Float64bits(a.Utility) != math.Float64bits(b.Utility) {
				t.Fatalf("adaptive=%v: level %d is %+v, want %+v", c.spec.Adaptive, i, a, b)
			}
		}
		for _, key := range []string{"optimal_k", "h_max"} {
			if math.Float64bits(got.Summary[key]) != math.Float64bits(c.want.Summary[key]) {
				t.Errorf("adaptive=%v: %s = %v, want %v as with max_k=30", c.spec.Adaptive, key, got.Summary[key], c.want.Summary[key])
			}
		}
	}
}

// TestKSetCanonicalizedForCache: a fred-sweep's k_set is sorted and
// deduplicated at submit, with min_k and max_k mirroring it, so the same
// set submitted in another order or with repeats is the same cache key.
func TestKSetCanonicalizedForCache(t *testing.T) {
	jobLog := &memLog{}
	e, p, q, _ := testFixture(t, service.Options{Workers: 1, JobLog: jobLog})
	e.Start()
	spec := func(set ...int) service.Spec {
		return service.Spec{
			Type: service.JobFREDSweep, Table: p, Aux: q, KSet: set,
			SensitiveLo: 40000, SensitiveHi: 160000,
		}
	}
	st, err := e.Submit(service.DefaultTenant, spec(9, 2, 5, 9))
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, e, st.ID); st.State != service.StateDone {
		t.Fatalf("k_set [9 2 5 9]: state %s (%s), want done", st.State, st.Error)
	}
	st2, err := e.Submit(service.DefaultTenant, spec(2, 5, 9))
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != service.StateDone || !st2.Cached {
		t.Fatalf("k_set [2 5 9]: state %s cached %v, want done from cache", st2.State, st2.Cached)
	}
	jobs := 0
	err = jobLog.ReplayWAL(func(rec service.WALRecord) error {
		if rec.Kind != service.WALJob {
			return nil
		}
		jobs++
		if sp := rec.Spec; !slices.Equal(sp.KSet, []int{2, 5, 9}) || sp.MinK != 2 || sp.MaxK != 9 {
			t.Errorf("job %s journaled k_set %v, min_k %d, max_k %d; want [2 5 9], 2, 9", rec.JobID, sp.KSet, sp.MinK, sp.MaxK)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if jobs == 0 {
		t.Fatal("no job record journaled")
	}
}

func TestCancelPendingJob(t *testing.T) {
	// Engine deliberately not started: the job stays pending in the queue.
	e, p, _, _ := testFixture(t, service.Options{Workers: 1})
	st, err := e.Submit(service.DefaultTenant, service.Spec{Type: service.JobAnonymize, Table: p, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(service.DefaultTenant, st.ID); err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, e, st.ID)
	if got.State != service.StateCanceled {
		t.Fatalf("state %s, want canceled", got.State)
	}
	if _, err := e.Result(service.DefaultTenant, st.ID); err == nil {
		t.Fatal("canceled job must not yield a result")
	}
	// Canceling a terminal job is an explicit error, not a silent no-op.
	if err := e.Cancel(service.DefaultTenant, st.ID); !errors.Is(err, service.ErrAlreadyFinished) {
		t.Fatalf("cancel of terminal job: got %v, want ErrAlreadyFinished", err)
	}
}

func TestQueueFull(t *testing.T) {
	e, p, _, _ := testFixture(t, service.Options{Workers: 1, QueueDepth: 1})
	// Not started: the first submission fills the queue.
	if _, err := e.Submit(service.DefaultTenant, service.Spec{Type: service.JobAnonymize, Table: p, K: 2}); err != nil {
		t.Fatal(err)
	}
	_, err := e.Submit(service.DefaultTenant, service.Spec{Type: service.JobAnonymize, Table: p, K: 3})
	if !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
}

func TestJobsListing(t *testing.T) {
	e, p, _, _ := testFixture(t, service.Options{Workers: 2})
	e.Start()
	var ids []string
	for k := 2; k <= 4; k++ {
		st, err := e.Submit(service.DefaultTenant, service.Spec{Type: service.JobAnonymize, Table: p, K: k})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitDone(t, e, id)
	}
	jobs := e.Jobs(service.DefaultTenant)
	if len(jobs) != len(ids) {
		t.Fatalf("Jobs: got %d, want %d", len(jobs), len(ids))
	}
	for i, st := range jobs {
		if st.ID != ids[i] {
			t.Fatalf("Jobs[%d] = %s, want %s (submission order)", i, st.ID, ids[i])
		}
		if st.State != service.StateDone {
			t.Fatalf("job %s state %s", st.ID, st.State)
		}
	}
	if _, err := e.Job(service.DefaultTenant, "job-404"); err == nil {
		t.Fatal("expected not-found for unknown job")
	}
}

func TestShutdownRejectsNewJobs(t *testing.T) {
	e, p, _, _ := testFixture(t, service.Options{Workers: 1})
	e.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(service.DefaultTenant, service.Spec{Type: service.JobAnonymize, Table: p, K: 2}); err == nil {
		t.Fatal("submit after shutdown must fail")
	}
}

func TestDeleteJob(t *testing.T) {
	e, p, _, _ := testFixture(t, service.Options{Workers: 1, CacheSize: -1})
	e.Start()
	st, err := e.Submit(service.DefaultTenant, service.Spec{Type: service.JobAnonymize, Table: p, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, st.ID)
	if err := e.Delete(service.DefaultTenant, st.ID); err != nil {
		t.Fatalf("delete finished job: %v", err)
	}
	if _, err := e.Job(service.DefaultTenant, st.ID); err == nil {
		t.Error("deleted job still listed")
	}
	var nf *service.ErrNotFound
	if err := e.Delete(service.DefaultTenant, st.ID); !errors.As(err, &nf) {
		t.Errorf("second delete = %v, want ErrNotFound", err)
	}
}

func TestDeleteRunningJobRefused(t *testing.T) {
	// Engine never started: the job stays pending (non-terminal) forever.
	e, p, _, _ := testFixture(t, service.Options{Workers: 1})
	st, err := e.Submit(service.DefaultTenant, service.Spec{Type: service.JobAnonymize, Table: p, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(service.DefaultTenant, st.ID); !errors.Is(err, service.ErrNotFinished) {
		t.Fatalf("delete pending job = %v, want ErrNotFinished", err)
	}
	if _, err := e.Job(service.DefaultTenant, st.ID); err != nil {
		t.Errorf("refused delete removed the job: %v", err)
	}
}

// collectEvents drains a Stream subscription to completion and returns the
// level events and the terminal status event.
func collectEvents(t *testing.T, ch <-chan service.Event) ([]service.Event, service.Event) {
	t.Helper()
	var levels []service.Event
	var terminal service.Event
	sawTerminal := false
	timeout := time.After(60 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				if !sawTerminal {
					t.Fatal("stream closed without a terminal status event")
				}
				return levels, terminal
			}
			if sawTerminal {
				t.Fatalf("event %q after the terminal status event", ev.Type)
			}
			switch ev.Type {
			case service.EventLevel:
				if ev.Level == nil {
					t.Fatal("level event without a level payload")
				}
				levels = append(levels, ev)
			case service.EventStatus:
				if ev.Status == nil || !ev.Status.State.Terminal() {
					t.Fatalf("status event not terminal: %+v", ev.Status)
				}
				terminal = ev
				sawTerminal = true
			default:
				t.Fatalf("unknown event type %q", ev.Type)
			}
		case <-timeout:
			t.Fatal("stream did not complete in time")
		}
	}
}

// TestStreamDeliversOrderedLevels: a Stream subscription on a running sweep
// sees every level in k order with per-level progress advancing, running
// calibration once three levels are in, and a terminal done status.
func TestStreamDeliversOrderedLevels(t *testing.T) {
	e, p, q, _ := testFixture(t, service.Options{Workers: 2, SweepWorkers: 4})
	e.Start()
	st, err := e.Submit(service.DefaultTenant, sweepSpec(p, q))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ch, err := e.Stream(ctx, service.DefaultTenant, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	levels, terminal := collectEvents(t, ch)
	if len(levels) < 2 {
		t.Fatalf("saw %d level events, want ≥ 2", len(levels))
	}
	prevProgress := 0.0
	for i, ev := range levels {
		if ev.Level.K != i+2 {
			t.Errorf("level event %d has k=%d, want %d (k-order)", i, ev.Level.K, i+2)
		}
		if ev.Progress <= prevProgress {
			t.Errorf("k=%d: progress %g did not advance past %g (per-level granularity)",
				ev.Level.K, ev.Progress, prevProgress)
		}
		prevProgress = ev.Progress
		if i >= 2 && ev.Calibration == nil {
			t.Errorf("k=%d: no running calibration after ≥ 3 levels", ev.Level.K)
		}
	}
	if terminal.Status.State != service.StateDone {
		t.Fatalf("terminal state %s (%s), want done", terminal.Status.State, terminal.Status.Error)
	}
	// The terminal snapshot carries the final level series with candidate
	// flags settled by calibration.
	if len(terminal.Status.Levels) != len(levels) {
		t.Errorf("terminal status has %d levels, stream delivered %d",
			len(terminal.Status.Levels), len(levels))
	}
	anyCandidate := false
	for _, ls := range terminal.Status.Levels {
		anyCandidate = anyCandidate || ls.Candidate
	}
	if !anyCandidate {
		t.Error("no candidate levels in the finished sweep's series")
	}
}

// TestStreamReplaysFinishedAndCachedJobs: subscribing after completion (or
// to a cache-hit job whose levels never streamed) replays the full series
// before the terminal status.
func TestStreamReplaysFinishedAndCachedJobs(t *testing.T) {
	e, p, q, _ := testFixture(t, service.Options{Workers: 2, SweepWorkers: 4})
	e.Start()
	st, err := e.Submit(service.DefaultTenant, sweepSpec(p, q))
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, e, st.ID)
	if st.State != service.StateDone {
		t.Fatalf("state %s (%s)", st.State, st.Error)
	}
	want := int(st.Summary["levels"])

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ch, err := e.Stream(ctx, service.DefaultTenant, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	levels, terminal := collectEvents(t, ch)
	if len(levels) != want {
		t.Fatalf("replay delivered %d level events, want %d", len(levels), want)
	}
	if terminal.Status.State != service.StateDone {
		t.Fatalf("terminal state %s", terminal.Status.State)
	}

	// The identical resubmission finishes instantly from the cache; its
	// stream still replays the level series.
	st2, err := e.Submit(service.DefaultTenant, sweepSpec(p, q))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatal("resubmission must hit the cache")
	}
	ch2, err := e.Stream(ctx, service.DefaultTenant, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	levels2, terminal2 := collectEvents(t, ch2)
	if len(levels2) != want {
		t.Fatalf("cached replay delivered %d level events, want %d", len(levels2), want)
	}
	if terminal2.Status.State != service.StateDone || !terminal2.Status.Cached {
		t.Fatalf("cached terminal: state %s cached %v", terminal2.Status.State, terminal2.Status.Cached)
	}
}

// TestCancelRunningSweepMidFlight: cancelling a running fred-sweep
// propagates through the job context into the streaming executor, ending the
// job (and every Wait and Stream on it) promptly, with the partial level
// series preserved on the status.
func TestCancelRunningSweepMidFlight(t *testing.T) {
	// A big cohort and a wide range keep the sweep busy long enough that the
	// cancel provably lands mid-flight.
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 200})
	if err != nil {
		t.Fatal(err)
	}
	store := service.NewStore()
	pInfo, err := store.Put(service.DefaultTenant, "P", sc.P)
	if err != nil {
		t.Fatal(err)
	}
	qInfo, err := store.Put(service.DefaultTenant, "Q", sc.Q)
	if err != nil {
		t.Fatal(err)
	}
	e := service.NewEngine(store, service.Options{Workers: 1, SweepWorkers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})

	st, err := e.Submit(service.DefaultTenant, service.Spec{
		Type: service.JobFREDSweep, Table: pInfo.ID, Aux: qInfo.ID,
		MinK: 2, MaxK: 100,
		SensitiveLo: 40000, SensitiveHi: 160000,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Subscribe while the job is still pending, then start the workers and
	// cancel as soon as the first level lands: the sweep still has ~98
	// levels to go, so a canceled terminal state can only mean mid-sweep
	// interruption.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	ch, err := e.Stream(ctx, service.DefaultTenant, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	var sawLevel bool
	for ev := range ch {
		if ev.Type == service.EventLevel && !sawLevel {
			sawLevel = true
			if err := e.Cancel(service.DefaultTenant, st.ID); err != nil {
				t.Fatalf("cancel running job: %v", err)
			}
		}
		if ev.Type == service.EventStatus {
			if ev.Status.State != service.StateCanceled {
				t.Fatalf("terminal state %s, want canceled (cancel did not interrupt the sweep)", ev.Status.State)
			}
		}
	}
	if !sawLevel {
		t.Fatal("no level event before the job finished")
	}

	// Wait unblocks immediately on the done channel, and the partial levels
	// survive on the canceled status.
	st = waitDone(t, e, st.ID)
	if st.State != service.StateCanceled {
		t.Fatalf("state %s, want canceled", st.State)
	}
	if len(st.Levels) == 0 || len(st.Levels) >= 99 {
		t.Fatalf("canceled sweep kept %d partial levels, want a strict mid-sweep prefix", len(st.Levels))
	}
	if _, err := e.Result(service.DefaultTenant, st.ID); err == nil {
		t.Fatal("canceled job must not yield a result")
	}
}

func TestFinishedJobRetention(t *testing.T) {
	e, p, _, _ := testFixture(t, service.Options{Workers: 1, CacheSize: -1, MaxFinishedJobs: 3})
	e.Start()
	var ids []string
	for i := 0; i < 6; i++ {
		st, err := e.Submit(service.DefaultTenant, service.Spec{Type: service.JobAnonymize, Table: p, K: 2 + i})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, e, st.ID)
		ids = append(ids, st.ID)
	}
	if got := len(e.Jobs(service.DefaultTenant)); got != 3 {
		t.Fatalf("job log holds %d jobs, want 3 (retention)", got)
	}
	// The survivors are the newest three, in order.
	for _, id := range ids[:3] {
		if _, err := e.Job(service.DefaultTenant, id); err == nil {
			t.Errorf("evicted job %s still listed", id)
		}
	}
	for _, id := range ids[3:] {
		if _, err := e.Job(service.DefaultTenant, id); err != nil {
			t.Errorf("retained job %s missing: %v", id, err)
		}
	}
}

// TestTenantJobIsolationAndQuota: jobs are invisible across tenants (foreign
// IDs behave exactly like unknown ones), listings are disjoint, and the
// per-tenant MaxJobs quota refuses over-limit submissions without affecting
// other tenants.
func TestTenantJobIsolationAndQuota(t *testing.T) {
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 30})
	if err != nil {
		t.Fatal(err)
	}
	store := service.NewStore()
	aInfo, err := store.Put("acme", "P", sc.P)
	if err != nil {
		t.Fatal(err)
	}
	bInfo, err := store.Put("globex", "P", sc.P)
	if err != nil {
		t.Fatal(err)
	}
	// Engine not started: jobs stay pending, so the live-job quota bites.
	e := service.NewEngine(store, service.Options{
		Workers: 1,
		Quotas:  &service.Quotas{Default: service.Quota{MaxJobs: 1}},
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})

	aJob, err := e.Submit("acme", service.Spec{Type: service.JobAnonymize, Table: aInfo.ID, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if aJob.Tenant != "acme" {
		t.Fatalf("job tenant %q, want acme", aJob.Tenant)
	}
	// acme is at its quota of 1 live job.
	var qe *service.QuotaError
	if _, err := e.Submit("acme", service.Spec{Type: service.JobAnonymize, Table: aInfo.ID, K: 3}); !errors.As(err, &qe) {
		t.Fatalf("over-quota submit = %v, want QuotaError", err)
	} else if qe.Resource != "jobs" || qe.Limit != 1 {
		t.Fatalf("quota error %+v", qe)
	}
	// globex has its own budget.
	bJob, err := e.Submit("globex", service.Spec{Type: service.JobAnonymize, Table: bInfo.ID, K: 2})
	if err != nil {
		t.Fatalf("other tenant's submit refused: %v", err)
	}

	// Foreign job IDs are not found — for every read and write path.
	var nf *service.ErrNotFound
	if _, err := e.Job("acme", bJob.ID); !errors.As(err, &nf) {
		t.Fatalf("foreign Job = %v, want ErrNotFound", err)
	}
	if _, err := e.Result("acme", bJob.ID); !errors.As(err, &nf) {
		t.Fatalf("foreign Result = %v, want ErrNotFound", err)
	}
	if err := e.Cancel("acme", bJob.ID); !errors.As(err, &nf) {
		t.Fatalf("foreign Cancel = %v, want ErrNotFound", err)
	}
	if err := e.Delete("acme", bJob.ID); !errors.As(err, &nf) {
		t.Fatalf("foreign Delete = %v, want ErrNotFound", err)
	}
	if _, err := e.Stream(context.Background(), "acme", bJob.ID); !errors.As(err, &nf) {
		t.Fatalf("foreign Stream = %v, want ErrNotFound", err)
	}
	// Listings are disjoint.
	if jobs := e.Jobs("acme"); len(jobs) != 1 || jobs[0].ID != aJob.ID {
		t.Fatalf("acme's job list %+v", jobs)
	}
	if jobs := e.Jobs("globex"); len(jobs) != 1 || jobs[0].ID != bJob.ID {
		t.Fatalf("globex's job list %+v", jobs)
	}
	// A tenant cancelling its own job frees its quota slot.
	if err := e.Cancel("acme", aJob.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit("acme", service.Spec{Type: service.JobAnonymize, Table: aInfo.ID, K: 4}); err != nil {
		t.Fatalf("submit after freeing the quota slot: %v", err)
	}
}

// TestTenantCacheIsolation: byte-identical tables and specs submitted by two
// tenants never share a cache entry — a cross-tenant hit would leak that the
// other tenant ran the same job — while a same-tenant resubmission still
// hits.
func TestTenantCacheIsolation(t *testing.T) {
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 30})
	if err != nil {
		t.Fatal(err)
	}
	store := service.NewStore()
	aInfo, err := store.Put("acme", "P", sc.P)
	if err != nil {
		t.Fatal(err)
	}
	aAux, err := store.Put("acme", "Q", sc.Q)
	if err != nil {
		t.Fatal(err)
	}
	bInfo, err := store.Put("globex", "P", sc.P)
	if err != nil {
		t.Fatal(err)
	}
	bAux, err := store.Put("globex", "Q", sc.Q)
	if err != nil {
		t.Fatal(err)
	}
	e := service.NewEngine(store, service.Options{Workers: 2, SweepWorkers: 4})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})
	e.Start()

	st, err := e.Submit("acme", sweepSpec(aInfo.ID, aAux.ID))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if st, err = e.Wait(ctx, "acme", st.ID); err != nil || st.State != service.StateDone {
		t.Fatalf("acme sweep: %v (%s %s)", err, st.State, st.Error)
	}
	// Same tenant, identical submission: cache hit.
	st2, err := e.Submit("acme", sweepSpec(aInfo.ID, aAux.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatal("same-tenant resubmission must hit the cache")
	}
	// Other tenant, byte-identical tables and spec: must NOT hit.
	st3, err := e.Submit("globex", sweepSpec(bInfo.ID, bAux.ID))
	if err != nil {
		t.Fatal(err)
	}
	if st3.Cached {
		t.Fatal("cross-tenant cache hit leaks another tenant's activity")
	}
	if st3, err = e.Wait(ctx, "globex", st3.ID); err != nil || st3.State != service.StateDone {
		t.Fatalf("globex sweep: %v (%s %s)", err, st3.State, st3.Error)
	}
}
