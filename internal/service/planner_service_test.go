package service_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// The adaptive-planner service suite: cross-job warm starts through the
// level index, the planner's checked scan behind adaptive specs, and the
// observability both feed. Runs raced in CI's race job, with the rest of
// the suite.

// plannerFixture is testFixture at a cohort size where the utility series
// is strictly monotone (n ≥ ~400), so the planner actually skips levels
// instead of falling back to the exhaustive walk.
func plannerFixture(t *testing.T, opts service.Options) (*service.Engine, string, string) {
	t.Helper()
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 400, DirectAux: true})
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
	return e, pInfo.ID, qInfo.ID
}

// TestWarmStartSecondSweepComputesOnlyGap submits two overlapping classic
// sweeps of the same table and asserts the second one seeds the overlap
// from the cross-job level index — only the gap levels are computed, the
// seeded levels stream with source "warm", and the warm-start counter in
// the metrics exposition advances.
func TestWarmStartSecondSweepComputesOnlyGap(t *testing.T) {
	reg := obs.NewRegistry()
	e, p, q, _ := testFixture(t, service.Options{Workers: 1, Metrics: reg})
	e.Start()

	first := sweepSpec(p, q) // k = 2..10
	st, err := e.Submit(service.DefaultTenant, first)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, e, st.ID)
	if st.State != service.StateDone {
		t.Fatalf("first sweep ended %s: %s", st.State, st.Error)
	}
	if got := int(st.Summary["levels_evaluated"]); got != 9 {
		t.Fatalf("first sweep evaluated %d levels, want 9", got)
	}

	second := first
	second.MaxK = 14 // overlaps k = 2..10, adds k = 11..14
	st2, err := e.Submit(service.DefaultTenant, second)
	if err != nil {
		t.Fatal(err)
	}
	st2 = waitDone(t, e, st2.ID)
	if st2.State != service.StateDone {
		t.Fatalf("second sweep ended %s: %s", st2.State, st2.Error)
	}
	if st2.Cached {
		t.Fatal("second sweep has a different range and must not be a result-cache hit")
	}
	if got := int(st2.Summary["levels_evaluated"]); got != 4 {
		t.Fatalf("second sweep evaluated %d levels, want only the 4-level gap (k=11..14)", got)
	}
	if got := len(st2.Levels); got != 13 {
		t.Fatalf("second sweep reports %d levels, want the full 13 (k=2..14)", got)
	}

	// The seeded levels streamed with source "warm", in ascending k order
	// interleaved with the computed gap.
	warm := 0
	for ev := range mustStream(t, e, st2.ID) {
		if ev.Type == service.EventLevel && ev.Source == "warm" {
			warm++
		}
	}
	if warm != 9 {
		t.Fatalf("second sweep streamed %d warm levels, want 9", warm)
	}

	// A from-scratch engine sweeping k=2..14 must reach the bit-identical
	// decision — warm-started levels are adopted verbatim.
	eFresh, pf, qf, _ := testFixture(t, service.Options{Workers: 1})
	eFresh.Start()
	fresh := sweepSpec(pf, qf)
	fresh.MaxK = 14
	stf, err := eFresh.Submit(service.DefaultTenant, fresh)
	if err != nil {
		t.Fatal(err)
	}
	stf = waitDone(t, eFresh, stf.ID)
	if stf.State != service.StateDone {
		t.Fatalf("fresh sweep ended %s: %s", stf.State, stf.Error)
	}
	for _, key := range []string{"optimal_k", "h_max", "tp", "tu"} {
		if st2.Summary[key] != stf.Summary[key] {
			t.Errorf("warm-started %s = %v, fresh sweep = %v", key, st2.Summary[key], stf.Summary[key])
		}
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `planner_warmstart_levels_total{tenant="default"} 9`) {
		t.Errorf("metrics exposition missing the warm-start counter:\n%s", grepFamily(buf.String(), "planner_"))
	}
}

// TestWarmStartRangeSweepStreamsInKOrder: warm levels sitting above
// computed ones still stream at their k position. A k=2..14 sweep after a
// k=6..10 one computes only k=2..5 and 11..14, streams k=2..14 in order
// with source "warm" on exactly k=6..10, and each level event's progress
// and running calibration are those of the ascending prefix it closes.
func TestWarmStartRangeSweepStreamsInKOrder(t *testing.T) {
	e, p, q, _ := testFixture(t, service.Options{Workers: 1})
	e.Start()
	run := func(minK, maxK int) service.Status {
		t.Helper()
		spec := sweepSpec(p, q)
		spec.MinK, spec.MaxK = minK, maxK
		st, err := e.Submit(service.DefaultTenant, spec)
		if err != nil {
			t.Fatal(err)
		}
		st = waitDone(t, e, st.ID)
		if st.State != service.StateDone {
			t.Fatalf("k=%d..%d sweep ended %s: %s", minK, maxK, st.State, st.Error)
		}
		return st
	}
	run(6, 10)
	st := run(2, 14)
	if got := int(st.Summary["levels_evaluated"]); got != 8 {
		t.Fatalf("second sweep evaluated %d levels, want 8 (k=2..5 and 11..14)", got)
	}

	var prefix []core.LevelResult
	for ev := range mustStream(t, e, st.ID) {
		if ev.Type != service.EventLevel {
			continue
		}
		k := ev.Level.K
		if want := 2 + len(prefix); k != want {
			t.Fatalf("level event %d has k=%d, want %d", len(prefix), k, want)
		}
		if warm := k >= 6 && k <= 10; (ev.Source == "warm") != warm {
			t.Errorf("k=%d streamed with source %q, want warm=%v", k, ev.Source, warm)
		}
		prefix = append(prefix, core.LevelResult{K: k, After: ev.Level.After, Utility: ev.Level.Utility})
		if want := 0.95 * float64(len(prefix)) / 13; math.Float64bits(ev.Progress) != math.Float64bits(want) {
			t.Errorf("k=%d progress %v, want %v", k, ev.Progress, want)
		}
		tp, tu, err := core.CalibrateThresholds(prefix)
		switch {
		case err != nil:
			if ev.Calibration != nil {
				t.Errorf("k=%d carries a calibration over only %d levels", k, len(prefix))
			}
		case ev.Calibration == nil:
			t.Errorf("k=%d carries no calibration", k)
		case math.Float64bits(ev.Calibration.Tp) != math.Float64bits(tp) ||
			math.Float64bits(ev.Calibration.Tu) != math.Float64bits(tu):
			t.Errorf("k=%d calibration %+v, want CalibrateThresholds over k=2..%d = (%v, %v)", k, *ev.Calibration, k, tp, tu)
		}
	}
	if len(prefix) != 13 {
		t.Fatalf("streamed %d level events, want 13 (k=2..14)", len(prefix))
	}
}

// TestAdaptivePlannerJobSkipsAndMatchesExhaustive runs the same explicit
// thresholds through a classic exhaustive sweep and an adaptive one on a
// monotone cohort: the planner must evaluate exactly the band and its
// crossing, stream them in ascending k, publish skip events with the
// bisection reason, count its probe and the skips, trace them on the plan
// span, and decide bit-identically.
func TestAdaptivePlannerJobSkipsAndMatchesExhaustive(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.DefaultTraceCapacity)
	// The level index is disabled so the adaptive job cannot warm-start from
	// the exhaustive one — this test measures the scan, not warm starts.
	e, p, q := plannerFixture(t, service.Options{Workers: 1, Metrics: reg, Tracer: tracer, LevelIndexSize: -1})
	e.Start()

	probe := service.Spec{
		Type: service.JobFREDSweep, Table: p, Aux: q,
		MinK: 2, MaxK: 16,
		SensitiveLo: 40000, SensitiveHi: 160000,
	}
	st, err := e.Submit(service.DefaultTenant, probe)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, e, st.ID)
	if st.State != service.StateDone {
		t.Fatalf("probe sweep ended %s: %s", st.State, st.Error)
	}
	// Tu at the k=6 utility puts the candidate band at k=2..6, leaving a
	// tail above the crossing k=7 to skip. Tp stays 0 so candidacy is Tu-only and
	// the thresholds count as explicit.
	var tu float64
	for _, ls := range st.Levels {
		if ls.K == 6 {
			tu = ls.Utility
		}
	}
	if tu == 0 {
		t.Fatal("probe sweep did not report a k=6 level")
	}

	exhaustive := probe
	exhaustive.Tu = tu
	stE, err := e.Submit(service.DefaultTenant, exhaustive)
	if err != nil {
		t.Fatal(err)
	}
	stE = waitDone(t, e, stE.ID)
	if stE.State != service.StateDone {
		t.Fatalf("exhaustive sweep ended %s: %s", stE.State, stE.Error)
	}
	if got := int(stE.Summary["levels_evaluated"]); got != 15 {
		t.Fatalf("exhaustive sweep evaluated %d levels, want all 15", got)
	}

	adaptive := exhaustive
	adaptive.Adaptive = true
	stA, err := e.Submit(service.DefaultTenant, adaptive)
	if err != nil {
		t.Fatal(err)
	}
	stA = waitDone(t, e, stA.ID)
	if stA.State != service.StateDone {
		t.Fatalf("adaptive sweep ended %s: %s", stA.State, stA.Error)
	}
	if stA.Cached {
		t.Fatal("adaptive spec must have its own cache identity")
	}
	evaluated := int(stA.Summary["levels_evaluated"])
	if evaluated != 6 {
		t.Fatalf("planner evaluated %d levels, want the band k=2..6 and its crossing k=7", evaluated)
	}
	for _, key := range []string{"optimal_k", "h_max"} {
		if stA.Summary[key] != stE.Summary[key] {
			t.Errorf("adaptive %s = %v, exhaustive = %v", key, stA.Summary[key], stE.Summary[key])
		}
	}

	// The event stream carries the levels in ascending k and the skip
	// ranges with the bisection reason.
	skipped, lastK := 0, 0
	for ev := range mustStream(t, e, stA.ID) {
		if ev.Type == service.EventLevel {
			if ev.Level.K <= lastK {
				t.Fatalf("level k=%d streamed after k=%d: adaptive levels must arrive in ascending k", ev.Level.K, lastK)
			}
			lastK = ev.Level.K
		}
		if ev.Type != service.EventSkip {
			continue
		}
		if ev.Skip == nil || ev.Skip.Reason != "bisection" {
			t.Fatalf("skip event without a bisection payload: %+v", ev)
		}
		skipped += ev.Skip.ToK - ev.Skip.FromK + 1
	}
	if skipped == 0 {
		t.Fatal("adaptive sweep published no skip events")
	}
	if evaluated+skipped != 15 {
		t.Errorf("evaluated %d + skipped %d levels, want the requested 15", evaluated, skipped)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	if !strings.Contains(expo, `planner_levels_skipped_total{reason="bisection",tenant="default"}`) &&
		!strings.Contains(expo, `planner_levels_skipped_total{tenant="default",reason="bisection"}`) {
		t.Errorf("metrics exposition missing the skip counter:\n%s", grepFamily(expo, "planner_"))
	}
	// Bisection for the crossing k=7 over k=2..16 probes k=9 above it: one
	// utility-only probe, counted and on the plan span.
	if !strings.Contains(expo, `planner_levels_probed_total{tenant="default"} 1`+"\n") {
		t.Errorf("metrics exposition does not count one probe:\n%s", grepFamily(expo, "planner_"))
	}
	var plans []map[string]string
	for _, sp := range tracer.Spans(stA.ID) {
		if sp.Name == "planner.plan" {
			plans = append(plans, sp.Attrs)
		}
	}
	if len(plans) != 1 || plans[0]["probed"] != "1" || plans[0]["evaluated"] != "6" {
		t.Errorf("planner.plan spans %v, want one with evaluated=6 probed=1", plans)
	}
}

// TestAdaptivePlannerWarmStartFillsFromIndex chains warm starts into the
// planner: an exhaustive sweep populates the level index, then an adaptive
// sweep of the same table adopts every level it needs without computing any.
func TestAdaptivePlannerWarmStartFillsFromIndex(t *testing.T) {
	e, p, q := plannerFixture(t, service.Options{Workers: 1})
	e.Start()

	probe := service.Spec{
		Type: service.JobFREDSweep, Table: p, Aux: q,
		MinK: 2, MaxK: 16,
		SensitiveLo: 40000, SensitiveHi: 160000,
	}
	st, err := e.Submit(service.DefaultTenant, probe)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, e, st.ID)
	if st.State != service.StateDone {
		t.Fatalf("probe sweep ended %s: %s", st.State, st.Error)
	}

	sub := probe
	sub.KSet = []int{2, 5, 9, 14}
	stK, err := e.Submit(service.DefaultTenant, sub)
	if err != nil {
		t.Fatal(err)
	}
	stK = waitDone(t, e, stK.ID)
	if stK.State != service.StateDone {
		t.Fatalf("k-set sweep ended %s: %s", stK.State, stK.Error)
	}
	if got := int(stK.Summary["levels_evaluated"]); got != 0 {
		t.Fatalf("k-set sweep computed %d levels, want 0 (all warm from the index)", got)
	}
	if got := len(stK.Levels); got != 4 {
		t.Fatalf("k-set sweep reports %d levels, want 4", got)
	}
	for i, want := range []int{2, 5, 9, 14} {
		if stK.Levels[i].K != want {
			t.Fatalf("k-set level %d is k=%d, want k=%d", i, stK.Levels[i].K, want)
		}
	}
}

// mustStream drains a terminal job's event feed.
func mustStream(t *testing.T, e *service.Engine, id string) <-chan service.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	ch, err := e.Stream(ctx, service.DefaultTenant, id)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// grepFamily extracts the exposition lines of one metric family prefix, for
// failure messages.
func grepFamily(expo, prefix string) string {
	var out []string
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, prefix) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
