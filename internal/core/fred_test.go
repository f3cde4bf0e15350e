package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/linkage"
	"repro/internal/metrics"
	"repro/internal/microagg"
	"repro/internal/web"
)

// universityFixture builds the full paper scenario: private table P, web
// corpus from the matching profiles, and gathered auxiliary table Q.
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

func TestAttackGainsInformation(t *testing.T) {
	p, q := universityFixture(t, 40)
	anon, err := microagg.New().Anonymize(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	release := anon.Clone()
	release.SuppressColumn(release.Schema().MustLookup("Salary"))

	phat, before, after, err := Attack(p, release, AttackConfig{Aux: q, SensitiveRange: salaryRange()})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's central claim (Figures 4 vs 5): fusion strictly improves
	// the adversary's estimate.
	if after >= before {
		t.Errorf("after %g not below before %g: fusion gained nothing", after, before)
	}
	if g := metrics.InformationGain(before, after); g <= 0 {
		t.Errorf("information gain %g not positive", g)
	}
	// P̂ has the same shape as P and a filled sensitive column.
	if phat.NumRows() != p.NumRows() {
		t.Fatalf("phat rows = %d", phat.NumRows())
	}
	sal := phat.Schema().MustLookup("Salary")
	for i := 0; i < phat.NumRows(); i++ {
		if phat.Cell(i, sal).IsNull() {
			t.Fatalf("row %d estimate missing", i)
		}
	}
}

func TestAttackWithoutAuxMatchesMidpointBaseline(t *testing.T) {
	// With no web data and the release-only fuzzy system, the adversary
	// still does no worse than the midpoint (QIs alone correlate with
	// salary — the reason the paper suppresses and generalizes them).
	p, _ := universityFixture(t, 40)
	anon, err := microagg.New().Anonymize(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	release := anon.Clone()
	release.SuppressColumn(release.Schema().MustLookup("Salary"))
	_, before, after, err := Attack(p, release, AttackConfig{SensitiveRange: salaryRange()})
	if err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Errorf("release-only fusion (%g) worse than midpoint (%g)", after, before)
	}
}

func TestAttackRowMismatch(t *testing.T) {
	p, _ := universityFixture(t, 40)
	short := p.Select(func([]dataset.Value) bool { return false })
	if _, _, _, err := Attack(p, short, AttackConfig{SensitiveRange: salaryRange()}); err == nil {
		t.Error("row mismatch accepted")
	}
}

// TestAttackNonFiniteSensitiveFails: a NaN in P's sensitive column would
// turn both dissimilarities into NaN; the attack fails naming the column.
func TestAttackNonFiniteSensitiveFails(t *testing.T) {
	p, q := universityFixture(t, 24)
	p = p.Clone()
	if err := p.SetCell(5, p.Schema().MustLookup("Salary"), dataset.Num(math.NaN())); err != nil {
		t.Fatal(err)
	}
	anon, err := microagg.New().Anonymize(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	release := anon.WithSuppressed(anon.Schema().IndicesOf(dataset.Sensitive)...)
	_, before, after, err := Attack(p, release, AttackConfig{Aux: q, SensitiveRange: salaryRange()})
	if err == nil {
		t.Fatalf("attack over a NaN salary succeeded: before %v, after %v", before, after)
	}
	if !strings.Contains(err.Error(), `"Salary"`) || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("error %q does not name the non-finite Salary column", err)
	}
}

// TestAttackNonFiniteFeatureFails: a NaN or ±Inf feature cell fails the
// attack naming the feature and its row, whichever row holds it — in Q, at
// row 0 (which seeds the observed-range scan) or later, or in a release
// quasi-identifier.
func TestAttackNonFiniteFeatureFails(t *testing.T) {
	p, q := universityFixture(t, 24)
	anon, err := microagg.New().Anonymize(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	release := anon.WithSuppressed(anon.Schema().IndicesOf(dataset.Sensitive)...)
	set := func(tab *dataset.Table, row int, col string, v float64) *dataset.Table {
		tab = tab.Clone()
		if err := tab.SetCell(row, tab.Schema().MustLookup(col), dataset.Num(v)); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	cases := []struct {
		name         string
		release, aux *dataset.Table
		want         string
	}{
		{"aux NaN row 0", release, set(q, 0, "Seniority", math.NaN()), `"aux.Seniority" has a non-finite value (NaN or ±Inf) in row 0`},
		{"aux NaN row 1", release, set(q, 1, "Seniority", math.NaN()), `"aux.Seniority" has a non-finite value (NaN or ±Inf) in row 1`},
		{"aux +Inf row 2", release, set(q, 2, "Seniority", math.Inf(1)), `"aux.Seniority" has a non-finite value (NaN or ±Inf) in row 2`},
		{"release NaN row 3", set(release, 3, "Teaching", math.NaN()), q, `"Teaching" has a non-finite value (NaN or ±Inf) in row 3`},
	}
	for _, tc := range cases {
		_, before, after, err := Attack(p, tc.release, AttackConfig{Aux: tc.aux, SensitiveRange: salaryRange()})
		if err == nil {
			t.Errorf("%s: attack succeeded: before %v, after %v", tc.name, before, after)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

func TestSweepSeriesShapes(t *testing.T) {
	p, q := universityFixture(t, 40)
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	levels, err := Sweep(p, microagg.New(), atk, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 15 {
		t.Fatalf("levels = %d, want 15", len(levels))
	}
	for i, lr := range levels {
		if lr.K != i+2 {
			t.Errorf("level %d has K=%d", i, lr.K)
		}
		// Figure 5 below Figure 4 at every k.
		if lr.After >= lr.Before {
			t.Errorf("k=%d: after %g ≥ before %g", lr.K, lr.After, lr.Before)
		}
		// Figure 6: gain positive.
		if lr.Gain <= 0 {
			t.Errorf("k=%d: gain %g", lr.K, lr.Gain)
		}
	}
	// Figure 7: utility decreases with k as a trend. MDAV's cluster-size
	// arithmetic makes it locally bumpy (40 = 5×8 at k=8 scores better
	// than 4×7+12 at k=7), so assert the endpoints and the half-means
	// rather than strict monotonicity.
	if levels[len(levels)-1].Utility >= levels[0].Utility {
		t.Errorf("utility did not fall across the sweep: %g → %g",
			levels[0].Utility, levels[len(levels)-1].Utility)
	}
	var firstHalf, secondHalf float64
	half := len(levels) / 2
	for i, lr := range levels {
		if i < half {
			firstHalf += lr.Utility
		} else {
			secondHalf += lr.Utility
		}
	}
	if firstHalf/float64(half) <= secondHalf/float64(len(levels)-half) {
		t.Errorf("utility trend not decreasing: first half mean %g ≤ second half mean %g",
			firstHalf/float64(half), secondHalf/float64(len(levels)-half))
	}
	// Figure 4 nearly flat: the salary midpoint error dominates; relative
	// spread of Before across k stays under 1%.
	lo, hi := levels[0].Before, levels[0].Before
	for _, lr := range levels {
		if lr.Before < lo {
			lo = lr.Before
		}
		if lr.Before > hi {
			hi = lr.Before
		}
	}
	if (hi-lo)/hi > 0.01 {
		t.Errorf("Before spread %.3f%% too large for the 'flat' Figure 4 shape", 100*(hi-lo)/hi)
	}
}

func TestSweepValidation(t *testing.T) {
	p, _ := universityFixture(t, 10)
	if _, err := Sweep(p, nil, AttackConfig{SensitiveRange: salaryRange()}, 2, 4); err == nil {
		t.Error("nil anonymizer accepted")
	}
	if _, err := Sweep(p, microagg.New(), AttackConfig{SensitiveRange: salaryRange()}, 1, 4); err == nil {
		t.Error("minK=1 accepted")
	}
	if _, err := Sweep(p, microagg.New(), AttackConfig{SensitiveRange: salaryRange()}, 5, 4); err == nil {
		t.Error("inverted range accepted")
	}
	// Sweep beyond the table ends early instead of failing.
	levels, err := Sweep(p, microagg.New(), AttackConfig{SensitiveRange: salaryRange()}, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) == 0 || levels[len(levels)-1].K > 10 {
		t.Errorf("sweep = %d levels, last K = %d", len(levels), levels[len(levels)-1].K)
	}
}

func TestSweepParallelMatchesSequential(t *testing.T) {
	p, q := universityFixture(t, 40)
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	seq, err := Sweep(p, microagg.New(), atk, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3, 8} {
		par, err := SweepParallel(p, microagg.New(), atk, 2, 12, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d levels vs %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i].K != seq[i].K || par[i].Before != seq[i].Before ||
				par[i].After != seq[i].After || par[i].Utility != seq[i].Utility {
				t.Errorf("workers=%d level %d differs: %+v vs %+v",
					workers, i, par[i], seq[i])
			}
		}
	}
}

func TestSweepParallelEndsEarlyPastTable(t *testing.T) {
	p, q := universityFixture(t, 10)
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	levels, err := SweepParallel(p, microagg.New(), atk, 2, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) == 0 || levels[len(levels)-1].K > 10 {
		t.Errorf("levels = %d, last K = %d", len(levels), levels[len(levels)-1].K)
	}
	if _, err := SweepParallel(p, nil, atk, 2, 4, 2); err == nil {
		t.Error("nil anonymizer accepted")
	}
	if _, err := SweepParallel(p, microagg.New(), atk, 1, 4, 2); err == nil {
		t.Error("minK=1 accepted")
	}
}

func TestRunFindsInteriorOptimum(t *testing.T) {
	p, q := universityFixture(t, 40)
	// Thresholds recalibrated for the synthetic cohort:
	// derive them from a probe sweep the way the authors did "based on
	// experimental observations".
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	probe, err := Sweep(p, microagg.New(), atk, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	tp := probe[4].After    // protection achieved around k=6 gates the space
	tu := probe[12].Utility // utility at k=14 is the floor
	res, err := Run(p, Config{
		Anonymizer: microagg.New(),
		Attack:     atk,
		Tp:         tp,
		Tu:         tu,
		MaxK:       16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	if res.OptimalK < 2 || res.Hmax <= 0 {
		t.Errorf("optimal K = %d, Hmax = %g", res.OptimalK, res.Hmax)
	}
	if res.Optimal == nil {
		t.Fatal("no optimal release")
	}
	// The optimal release's candidate entry satisfies the thresholds.
	var found bool
	for _, li := range res.Candidates {
		lr := res.Levels[li]
		if lr.K == res.OptimalK {
			found = true
			if lr.After < tp {
				t.Errorf("optimal level violates Tp: %g < %g", lr.After, tp)
			}
			if lr.Utility < tu {
				t.Errorf("optimal level violates Tu: %g < %g", lr.Utility, tu)
			}
		}
	}
	if !found {
		t.Error("optimal K not among candidates")
	}
	// The sensitive column of the optimal release is suppressed.
	sal := res.Optimal.Schema().MustLookup("Salary")
	for i := 0; i < res.Optimal.NumRows(); i++ {
		if !res.Optimal.Cell(i, sal).IsNull() {
			t.Fatal("optimal release leaks the sensitive column")
		}
	}
}

func TestRunStopsAtUtilityThreshold(t *testing.T) {
	p, q := universityFixture(t, 40)
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	probe, err := Sweep(p, microagg.New(), atk, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Set Tu to the utility at k=6: the sweep must not continue past the
	// first level whose utility drops below it.
	tu := probe[4].Utility // k=6
	res, err := Run(p, Config{
		Anonymizer: microagg.New(),
		Attack:     atk,
		Tp:         0,
		Tu:         tu,
		MaxK:       20,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Levels[len(res.Levels)-1]
	if last.K > 7 {
		t.Errorf("sweep ran to k=%d despite utility threshold at k≈6", last.K)
	}
}

func TestRunLiteralPaperLoop(t *testing.T) {
	p, q := universityFixture(t, 40)
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	// Literal pseudocode: "repeat ... until U ≥ Tu" with a tiny Tu stops
	// after the very first level.
	res, err := Run(p, Config{
		Anonymizer:       microagg.New(),
		Attack:           atk,
		Tp:               0,
		Tu:               1e-9,
		LiteralPaperLoop: true,
		MaxK:             16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 1 || res.Levels[0].K != 2 {
		t.Errorf("literal loop swept %d levels", len(res.Levels))
	}
}

func TestRunNoCandidates(t *testing.T) {
	p, q := universityFixture(t, 20)
	_, err := Run(p, Config{
		Anonymizer: microagg.New(),
		Attack:     AttackConfig{Aux: q, SensitiveRange: salaryRange()},
		Tp:         1e18, // unreachable protection
		Tu:         0,
		MaxK:       6,
	})
	if !errors.Is(err, ErrNoCandidate) {
		t.Errorf("err = %v, want ErrNoCandidate", err)
	}
}

func TestRunConfigValidation(t *testing.T) {
	p, _ := universityFixture(t, 10)
	if _, err := Run(p, Config{}); err == nil {
		t.Error("nil anonymizer accepted")
	}
	if _, err := Run(nil, Config{Anonymizer: microagg.New()}); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := Run(p, Config{Anonymizer: microagg.New(), MinK: 1}); err == nil {
		t.Error("MinK=1 accepted")
	}
	if _, err := Run(p, Config{Anonymizer: microagg.New(), MinK: 5, MaxK: 3}); err == nil {
		t.Error("MaxK < MinK accepted")
	}
}

func TestRunWithAlternativeEstimators(t *testing.T) {
	p, q := universityFixture(t, 30)
	for _, est := range []fusion.Estimator{fusion.Rank{}, fusion.NewFuzzy()} {
		res, err := Run(p, Config{
			Anonymizer: microagg.New(),
			Attack:     AttackConfig{Aux: q, Estimator: est, SensitiveRange: salaryRange()},
			Tp:         0,
			Tu:         0,
			MaxK:       8,
		})
		if err != nil {
			t.Fatalf("%s: %v", est.Name(), err)
		}
		if res.OptimalK < 2 {
			t.Errorf("%s: optimal K = %d", est.Name(), res.OptimalK)
		}
	}
}

// TestAttackUnsuppressedSensitiveBaseline: the pre-fusion "before" always
// measures the midpoint baseline, even when the caller's release publishes
// the sensitive column (e.g. a perturbed release handed straight to Attack).
func TestAttackUnsuppressedSensitiveBaseline(t *testing.T) {
	p, q := universityFixture(t, 24)
	anon, err := microagg.New().Anonymize(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Leave the sensitive column published: before must still compare P
	// against the release with the sensitive column forced to the midpoint.
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	_, before, _, err := Attack(p, anon, atk)
	if err != nil {
		t.Fatal(err)
	}
	pmid, err := fusion.FuseWith(anon, fusion.PrepareAux(nil), fusion.Midpoint{}, salaryRange(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := metrics.TableDissimilarity(p, pmid, comparisonColumns(p), salaryRange().Mid())
	if err != nil {
		t.Fatal(err)
	}
	if before != want {
		t.Errorf("before = %v, want midpoint-baseline %v", before, want)
	}
}

// TestAttackReleaseWithReorderedSchema: a caller-supplied release whose
// columns are laid out differently is resolved by name, not by P's column
// positions.
func TestAttackReleaseWithReorderedSchema(t *testing.T) {
	p, q := universityFixture(t, 24)
	anon, err := microagg.New().Anonymize(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	release := anon.WithSuppressed(anon.Schema().IndicesOf(dataset.Sensitive)...)
	// Reverse the column order in a projected copy of the release.
	names := release.Schema().Names()
	rev := make([]string, len(names))
	for i, n := range names {
		rev[len(names)-1-i] = n
	}
	shuffled, err := release.Project(rev...)
	if err != nil {
		t.Fatal(err)
	}
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	_, beforeA, afterA, err := Attack(p, release, atk)
	if err != nil {
		t.Fatal(err)
	}
	_, beforeB, afterB, err := Attack(p, shuffled, atk)
	if err != nil {
		t.Fatal(err)
	}
	if beforeA != beforeB || afterA != afterB {
		t.Errorf("reordered release changed the attack: before %v vs %v, after %v vs %v",
			beforeA, beforeB, afterA, afterB)
	}
	// A release missing a compared column is an error, not a misread.
	narrow, err := release.Project(names[:len(names)-1]...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Attack(p, narrow, atk); err == nil {
		t.Error("release missing a comparison column accepted")
	}
}
