package planner

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/linkage"
	"repro/internal/metrics"
	"repro/internal/microagg"
	"repro/internal/web"
)

func universityFixture(t testing.TB, n int) (*dataset.Table, *dataset.Table) {
	t.Helper()
	p, profiles, err := datagen.University(datagen.UniversityConfig{Seed: 42, N: n})
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := web.BuildCorpus(profiles, web.GenOptions{Seed: 42, Distractors: 2 * n, PropertyNoise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	q, err := web.Gather(corpus, p.ColumnStrings(0), web.AcademicLadder, linkage.DefaultMatcher())
	if err != nil {
		t.Fatal(err)
	}
	return p, q
}

func salaryRange() fusion.Range { return fusion.Range{Lo: 40000, Hi: 160000} }

// exhaustiveSeries computes every requested level the slow way, as the
// comparison ground truth.
func exhaustiveSeries(t *testing.T, p, q *dataset.Table, minK, maxK int) []core.LevelResult {
	t.Helper()
	series, err := core.Sweep(p, microagg.New(), core.AttackConfig{Aux: q, SensitiveRange: salaryRange()}, minK, maxK)
	if err != nil {
		t.Fatal(err)
	}
	return series
}

func sameDecision(t *testing.T, want, got *core.Result) {
	t.Helper()
	if got.OptimalK != want.OptimalK {
		t.Fatalf("optimal k = %d, exhaustive picked %d", got.OptimalK, want.OptimalK)
	}
	if got.Hmax != want.Hmax {
		t.Fatalf("Hmax = %v, exhaustive %v (not bit-identical)", got.Hmax, want.Hmax)
	}
	if len(got.H) != len(want.H) {
		t.Fatalf("%d candidates, exhaustive has %d", len(got.H), len(want.H))
	}
	for i := range got.H {
		if got.H[i] != want.H[i] {
			t.Fatalf("H[%d] = %v, exhaustive %v (not bit-identical)", i, got.H[i], want.H[i])
		}
	}
}

func ceilLog2(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

func TestPlannerBisectMatchesExhaustive(t *testing.T) {
	// 400 rows: large enough that the utility series is strictly monotone
	// (the discernibility metric's O(n·k) growth dominates remainder-group
	// jitter), so the scan and its bisection check must complete without
	// falling back.
	p, q := universityFixture(t, 400)
	atk := core.AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	series := exhaustiveSeries(t, p, q, 2, 24)
	// Tu crossing at k=8: the band is the 7-level prefix. Tp mid-series so
	// the noisy After filter is active inside the band.
	tu := series[6].Utility
	tp := series[2].After
	want, err := core.DecideWithin(append([]core.LevelResult(nil), series...), tp, tu, metrics.HOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ks, err := Expand(2, 24, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), p, Config{
		Anonymizer: microagg.New(), Attack: atk,
		Levels: ks, Tp: tp, Tu: tu, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Fallback {
		t.Fatalf("fallback on a monotone utility series: %s", out.FallbackReason)
	}
	if out.Partial {
		t.Fatal("partial without a deadline")
	}
	if out.Evaluated >= out.Requested {
		t.Fatalf("evaluated %d of %d levels: the scan saved nothing", out.Evaluated, out.Requested)
	}
	band := 0
	for _, lr := range series {
		if lr.Utility >= tu {
			band++
		}
	}
	if bound := band + 1; out.Evaluated > bound {
		t.Fatalf("evaluated %d levels, the scan's bound is %d (band %d plus its crossing)", out.Evaluated, bound, band)
	}
	// The series is exactly MinK through the crossing level; the check's
	// utility-only probes stay out of it.
	for i, lr := range out.Levels {
		if lr.K != ks[i] {
			t.Fatalf("series level %d has k=%d, want the prefix of %v", i, lr.K, ks)
		}
	}
	if out.Probed < 1 || out.Probed > ceilLog2(len(ks)+1) {
		t.Fatalf("probed %d levels, want 1..%d (bisection's probe points above the crossing)", out.Probed, ceilLog2(len(ks)+1))
	}
	got, err := core.DecideWithin(out.Levels, tp, tu, metrics.HOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameDecision(t, want, got)
	// Every skipped level must be a non-candidate in the exhaustive series —
	// that is the invariant making the sparse decision exact.
	evaluated := map[int]bool{}
	for _, lr := range out.Levels {
		evaluated[lr.K] = true
	}
	for _, lr := range want.Levels {
		if lr.Candidate && !evaluated[lr.K] {
			t.Fatalf("candidate level k=%d was skipped", lr.K)
		}
	}
}

func TestPlannerWarmStartSkipsSeededLevels(t *testing.T) {
	p, q := universityFixture(t, 50)
	atk := core.AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	series := exhaustiveSeries(t, p, q, 2, 16)
	tp, tu, err := core.CalibrateThresholds(series)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.DecideWithin(append([]core.LevelResult(nil), series...), tp, tu, metrics.HOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Seed every third level, plus one outside the requested set (ignored).
	held := map[int]core.LevelResult{}
	for i, lr := range series {
		if i%3 == 0 {
			held[lr.K] = lr
		}
	}
	held[99] = core.LevelResult{K: 99}
	ks, _ := Expand(2, 16, 1, nil)

	var warmSeen, computedSeen int
	out, err := Run(context.Background(), p, Config{
		Anonymizer: microagg.New(), Attack: atk,
		Levels: ks, Held: held, Workers: 2,
		Hooks: Hooks{Level: func(lr core.LevelResult, warm bool) {
			if warm {
				warmSeen++
			} else {
				computedSeen++
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Warm != len(held)-1 {
		t.Fatalf("adopted %d warm levels, want %d (the out-of-set seed must be ignored)", out.Warm, len(held)-1)
	}
	if out.Evaluated != out.Requested-out.Warm {
		t.Fatalf("evaluated %d levels, want exactly the %d-level gap", out.Evaluated, out.Requested-out.Warm)
	}
	if warmSeen != out.Warm || computedSeen != out.Evaluated {
		t.Fatalf("hooks saw %d warm + %d computed, outcome says %d + %d", warmSeen, computedSeen, out.Warm, out.Evaluated)
	}
	got, err := core.DecideWithin(out.Levels, tp, tu, metrics.HOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameDecision(t, want, got)
	for i, lr := range out.Levels {
		if lr.K != series[i].K || lr.After != series[i].After || lr.Utility != series[i].Utility {
			t.Fatalf("level %d: warm-started series diverges from exhaustive at k=%d", i, lr.K)
		}
	}
}

func TestPlannerFallbackOnNonMonotoneSeeds(t *testing.T) {
	p, q := universityFixture(t, 40)
	atk := core.AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	series := exhaustiveSeries(t, p, q, 2, 12)

	// Doctor a seed so Utility RISES in k — the monotonicity violation the
	// planner must detect at adoption time and answer with the exhaustive
	// walk. (Only utility ordering counts: the After series is noisy by
	// nature and its wiggles must never trigger a fallback.)
	held := map[int]core.LevelResult{
		4: series[2],
		6: {K: 6, After: series[4].After, Utility: 2 * series[2].Utility},
	}
	// Tu at k=5 keeps the band small, so the scan would skip the tail —
	// exactly what the detected violation must undo.
	ks, _ := Expand(2, 12, 1, nil)
	var fellBack string
	out, err := Run(context.Background(), p, Config{
		Anonymizer: microagg.New(), Attack: atk,
		Levels: ks, Tp: series[1].After, Tu: series[3].Utility, Held: held,
		Hooks: Hooks{Fallback: func(reason string) { fellBack = reason }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Fallback || fellBack == "" {
		t.Fatal("non-monotone seeds did not trigger the exhaustive fallback")
	}
	if out.Skipped != 0 {
		t.Fatalf("fallback left %d levels skipped; it must evaluate everything", out.Skipped)
	}
	if out.Evaluated != out.Requested-out.Warm {
		t.Fatalf("fallback evaluated %d levels, want the full %d-level remainder", out.Evaluated, out.Requested-out.Warm)
	}
}

func TestPlannerKSetEvaluatesExactlyTheSet(t *testing.T) {
	p, q := universityFixture(t, 40)
	atk := core.AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	series := exhaustiveSeries(t, p, q, 2, 12)
	byK := map[int]core.LevelResult{}
	for _, lr := range series {
		byK[lr.K] = lr
	}

	ks, err := Expand(0, 0, 0, []int{9, 2, 5, 9, 12})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 5, 9, 12}; len(ks) != len(want) {
		t.Fatalf("Expand = %v, want %v", ks, want)
	}
	out, err := Run(context.Background(), p, Config{
		Anonymizer: microagg.New(), Attack: atk, Levels: ks, Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Levels) != len(ks) || out.Evaluated != len(ks) {
		t.Fatalf("evaluated %d levels (%d in series), want exactly the %d-level set", out.Evaluated, len(out.Levels), len(ks))
	}
	for i, lr := range out.Levels {
		ref := byK[ks[i]]
		if lr.K != ks[i] || lr.After != ref.After || lr.Utility != ref.Utility || lr.Before != ref.Before {
			t.Fatalf("k=%d: k-set level differs from the exhaustive series", ks[i])
		}
	}
}

func TestPlannerBudgetStopsAtDeadline(t *testing.T) {
	p, q := universityFixture(t, 40)
	atk := core.AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	ks, _ := Expand(2, 16, 1, nil)

	// A clock already past the deadline: only the decidability floor (three
	// levels under auto-calibration) runs — endpoints, then the widest-gap
	// midpoint.
	base := time.Unix(1700000000, 0)
	out, err := Run(context.Background(), p, Config{
		Anonymizer: microagg.New(), Attack: atk, Levels: ks,
		Deadline: base,
		now:      func() time.Time { return base.Add(time.Hour) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Partial {
		t.Fatal("deadline in the past must yield a partial outcome")
	}
	if out.Evaluated != 3 {
		t.Fatalf("evaluated %d levels, want the 3-level auto-calibration floor", out.Evaluated)
	}
	gotK := []int{out.Levels[0].K, out.Levels[1].K, out.Levels[2].K}
	if gotK[0] != 2 || gotK[2] != 16 || gotK[1] != 9 {
		t.Fatalf("budget walk evaluated k=%v, want endpoints then widest-gap midpoint [2 9 16]", gotK)
	}
	if len(out.SkippedRanges) == 0 {
		t.Fatal("no skip ranges recorded")
	}
	for _, r := range out.SkippedRanges {
		if r.Reason != SkipDeadline {
			t.Fatalf("skip range %+v, want reason %q", r, SkipDeadline)
		}
	}
	if out.Skipped != out.Requested-3 {
		t.Fatalf("skipped %d, want %d", out.Skipped, out.Requested-3)
	}

	// A generous deadline evaluates everything with no partial flag.
	out, err = Run(context.Background(), p, Config{
		Anonymizer: microagg.New(), Attack: atk, Levels: ks,
		Deadline: base,
		now:      func() time.Time { return base.Add(-time.Hour) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Partial || out.Evaluated != len(ks) {
		t.Fatalf("generous budget: partial=%v evaluated=%d, want full %d-level walk", out.Partial, out.Evaluated, len(ks))
	}
}

// TestPlannerScanStopsAtDeadline: with explicit thresholds the deadline
// stops the scan as levels complete, on the level pool too. The run keeps
// the decidable ascending prefix it reached — one level when the deadline
// has already passed — sets Partial, skips the rest for the deadline and
// runs no check.
func TestPlannerScanStopsAtDeadline(t *testing.T) {
	p, q := universityFixture(t, 40)
	atk := core.AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	series := exhaustiveSeries(t, p, q, 2, 16)
	tp, tu := 0.0, series[12].Utility // Tu alone; its crossing is far above the prefix
	ks, _ := Expand(2, 16, 1, nil)
	base := time.Unix(1700000000, 0)
	for _, tc := range []struct {
		name     string
		inBudget int // clock readings before the deadline passes
		want     []int
	}{
		{"expired", 0, []int{2}},
		{"mid-scan", 2, []int{2, 3, 4}},
	} {
		for _, workers := range []int{1, 2} {
			readings := 0
			out, err := Run(context.Background(), p, Config{
				Anonymizer: microagg.New(), Attack: atk, Levels: ks,
				Tp: tp, Tu: tu, Workers: workers, Deadline: base,
				now: func() time.Time {
					readings++
					if readings > tc.inBudget {
						return base.Add(time.Second)
					}
					return base.Add(-time.Second)
				},
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			var got []int
			for _, lr := range out.Levels {
				got = append(got, lr.K)
			}
			if !out.Partial || !slices.Equal(got, tc.want) || out.Evaluated != len(tc.want) || out.Probed != 0 {
				t.Fatalf("%s workers=%d: partial=%v series k=%v evaluated=%d probed=%d, want a partial prefix %v and no probes",
					tc.name, workers, out.Partial, got, out.Evaluated, out.Probed, tc.want)
			}
			if len(out.SkippedRanges) != 1 || out.SkippedRanges[0] != (SkipRange{FromK: len(tc.want) + 2, ToK: 16, Reason: SkipDeadline}) {
				t.Fatalf("%s workers=%d: skip ranges %+v, want k=%d..16 for the deadline", tc.name, workers, out.SkippedRanges, len(tc.want)+2)
			}
			if _, err := core.DecideWithin(out.Levels, tp, tu, metrics.HOptions{}); err != nil {
				t.Fatalf("%s workers=%d: the partial prefix is not decidable: %v", tc.name, workers, err)
			}
		}
	}
}

func TestPlannerInfeasibleTail(t *testing.T) {
	p, q := universityFixture(t, 12)
	atk := core.AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	series := exhaustiveSeries(t, p, q, 2, 8)
	tp, tu, err := core.CalibrateThresholds(series)
	if err != nil {
		t.Fatal(err)
	}

	// Levels 2..20 on 12 rows: the tail outgrows the table in both modes.
	ks, _ := Expand(2, 20, 1, nil)
	for name, cfg := range map[string]Config{
		"walk": {Anonymizer: microagg.New(), Attack: atk, Levels: ks},
		"scan": {Anonymizer: microagg.New(), Attack: atk, Levels: ks, Tp: tp, Tu: tu},
	} {
		out, err := Run(context.Background(), p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Infeasible == 0 {
			t.Fatalf("%s: no levels marked infeasible on a 12-row table swept to k=20", name)
		}
		last := out.SkippedRanges[len(out.SkippedRanges)-1]
		if last.Reason != SkipInfeasible || last.ToK != 20 {
			t.Fatalf("%s: last skip range %+v, want an infeasible tail ending at 20", name, last)
		}
		for _, lr := range out.Levels {
			if lr.K > 12 {
				t.Fatalf("%s: evaluated k=%d beyond the table", name, lr.K)
			}
		}
	}

	// A set that starts beyond the table fails like the exhaustive sweep.
	if _, err := Run(context.Background(), p, Config{
		Anonymizer: microagg.New(), Attack: atk, Levels: []int{15, 18},
	}); err == nil {
		t.Fatal("k-set entirely beyond the table must error, as the exhaustive sweep does")
	}
	if _, err := Run(context.Background(), p, Config{
		Anonymizer: microagg.New(), Attack: atk, Levels: []int{15, 18}, Tp: tp, Tu: tu,
	}); err == nil {
		t.Fatal("a scan over an infeasible set must error, as the exhaustive sweep does")
	}
}

func TestExpandValidation(t *testing.T) {
	if _, err := Expand(1, 8, 1, nil); err == nil {
		t.Error("minK below 2 accepted")
	}
	if _, err := Expand(8, 4, 1, nil); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := Expand(0, 0, 0, []int{1, 4}); err == nil {
		t.Error("k-set entry below 2 accepted")
	}
	ks, err := Expand(2, 11, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 5, 8, 11}; len(ks) != 4 || ks[0] != 2 || ks[3] != 11 {
		t.Fatalf("stride expansion = %v, want %v", ks, want)
	}
}
