package repro

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/hierarchy"
	"repro/internal/kanon"
	"repro/internal/microagg"
	"repro/internal/mondrian"
	"repro/internal/web"
)

func TestUniversityScenario(t *testing.T) {
	sc, err := UniversityScenario(ScenarioOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if sc.P.NumRows() != 40 || sc.Q.NumRows() != 40 {
		t.Fatalf("P rows = %d, Q rows = %d", sc.P.NumRows(), sc.Q.NumRows())
	}
	if sc.Corpus.Len() < 40 {
		t.Errorf("corpus = %d pages", sc.Corpus.Len())
	}
	// Q is aligned with P by identifier.
	for i := 0; i < sc.P.NumRows(); i++ {
		pn, _ := sc.P.Cell(i, 0).Text()
		qn, _ := sc.Q.Cell(i, 0).Text()
		if pn != qn {
			t.Fatalf("row %d: P name %q vs Q name %q", i, pn, qn)
		}
	}
}

func TestFinancialScenario(t *testing.T) {
	sc, err := FinancialScenario(ScenarioOptions{Seed: 7, N: 24})
	if err != nil {
		t.Fatal(err)
	}
	if sc.P.NumRows() != 24 {
		t.Fatalf("rows = %d", sc.P.NumRows())
	}
	if sc.SensitiveRange.Hi != 100000 {
		t.Errorf("range = %+v", sc.SensitiveRange)
	}
}

func TestTableIIScenarioMatchesPaper(t *testing.T) {
	sc, err := TableIIScenario(web.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sc.P.NumRows() != 4 {
		t.Fatalf("rows = %d", sc.P.NumRows())
	}
	// The gathered Q reproduces Table IV's property holdings.
	pCol := sc.Q.Schema().MustLookup("PropertyHoldings")
	want := []float64{3560, 1200, 720, 5430}
	for i, w := range want {
		if got := sc.Q.Cell(i, pCol).MustFloat(); got != w {
			t.Errorf("row %d property = %g, want %g", i, got, w)
		}
	}
}

// reviewLadders builds numeric generalization ladders for the three
// university review quasi-identifiers.
func reviewLadders() (map[string]hierarchy.Generalizer, error) {
	out := make(map[string]hierarchy.Generalizer)
	for _, name := range []string{"Teaching", "Research", "Service"} {
		l, err := hierarchy.NewLadder(1, 10, 1)
		if err != nil {
			return nil, err
		}
		out[name] = l
	}
	return out, nil
}

func TestReleaseSuppressesSensitive(t *testing.T) {
	sc, err := UniversityScenario(ScenarioOptions{Seed: 1, N: 20})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sc.Release(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	sal := rel.Schema().MustLookup("Salary")
	for i := 0; i < rel.NumRows(); i++ {
		if !rel.Cell(i, sal).IsNull() {
			t.Fatal("salary not suppressed")
		}
	}
	// k-anonymity over QIs.
	qis := rel.Schema().IndicesOf(dataset.QuasiIdentifier)
	for _, g := range rel.GroupBy(qis) {
		if len(g) < 3 {
			t.Errorf("class of %d < 3", len(g))
		}
	}
}

func TestScenarioAttackEndToEnd(t *testing.T) {
	sc, err := UniversityScenario(ScenarioOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sc.Release(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	phat, before, after, err := sc.Attack(rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("fusion gained nothing: %g ≥ %g", after, before)
	}
	if phat.NumRows() != sc.P.NumRows() {
		t.Errorf("phat rows = %d", phat.NumRows())
	}
}

func TestRunFREDAutoCalibration(t *testing.T) {
	sc, err := UniversityScenario(ScenarioOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.RunFRED(FREDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OptimalK < 2 || res.OptimalK > 16 {
		t.Errorf("optimal k = %d", res.OptimalK)
	}
	if len(res.Candidates) < 2 {
		t.Errorf("solution space too small: %d candidates", len(res.Candidates))
	}
}

// TestRunFREDOneSweepMatchesProbe: RunFRED without thresholds sweeps once
// and calibrates inside core.Decide. That must equal the two-sweep recipe —
// a probe Sweep, CalibrateThresholds, then RunFRED at those thresholds — bit
// for bit, ErrNoCandidate outcomes included.
func TestRunFREDOneSweepMatchesProbe(t *testing.T) {
	var noCandidate int
	for _, n := range []int{24, 40, 120, 400} {
		sc, err := UniversityScenario(ScenarioOptions{Seed: 42, N: n})
		if err != nil {
			t.Fatal(err)
		}
		for _, anon := range []core.Anonymizer{microagg.New(), mondrian.New()} {
			probe, err := sc.Sweep(2, 16, anon, nil)
			if err != nil {
				t.Fatal(err)
			}
			tp, tu, err := core.CalibrateThresholds(probe)
			if err != nil {
				t.Fatal(err)
			}
			for _, literal := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/%s/literal=%v", n, anon.Name(), literal), func(t *testing.T) {
					want, wantErr := sc.RunFRED(FREDOptions{Anonymizer: anon, Tp: tp, Tu: tu, LiteralPaperLoop: literal})
					got, gotErr := sc.RunFRED(FREDOptions{Anonymizer: anon, LiteralPaperLoop: literal})
					if !errors.Is(gotErr, wantErr) {
						t.Fatalf("one sweep: err %v; probe + calibrate: err %v", gotErr, wantErr)
					}
					if errors.Is(gotErr, core.ErrNoCandidate) {
						noCandidate++
					} else if gotErr != nil {
						t.Fatal(gotErr)
					}
					if got.Tp != tp || got.Tu != tu || want.Tp != tp || want.Tu != tu {
						t.Errorf("thresholds (%g, %g) and (%g, %g), want the calibrated (%g, %g)",
							got.Tp, got.Tu, want.Tp, want.Tu, tp, tu)
					}
					if len(got.Levels) != len(want.Levels) || !slices.Equal(got.Candidates, want.Candidates) {
						t.Errorf("candidates %v of %d levels, want %v of %d",
							got.Candidates, len(got.Levels), want.Candidates, len(want.Levels))
					}
					if gotErr != nil {
						return
					}
					if got.OptimalK != want.OptimalK || math.Float64bits(got.Hmax) != math.Float64bits(want.Hmax) {
						t.Errorf("optimum k=%d H=%v, want k=%d H=%v", got.OptimalK, got.Hmax, want.OptimalK, want.Hmax)
					}
					if len(got.H) != len(want.H) {
						t.Fatalf("%d H values, want %d", len(got.H), len(want.H))
					}
					for i := range want.H {
						if math.Float64bits(got.H[i]) != math.Float64bits(want.H[i]) {
							t.Errorf("H[%d] = %v, want %v", i, got.H[i], want.H[i])
						}
					}
					if !got.Optimal.Equal(want.Optimal) {
						t.Error("optimal releases differ")
					}
				})
			}
		}
	}
	t.Logf("%d of 16 configurations end in ErrNoCandidate on both paths", noCandidate)
}

func TestRunFREDWithGeneralizationScheme(t *testing.T) {
	sc, err := UniversityScenario(ScenarioOptions{Seed: 9, N: 24})
	if err != nil {
		t.Fatal(err)
	}
	gens, err := reviewLadders()
	if err != nil {
		t.Fatal(err)
	}
	// Swap in full-domain generalization as Basic_Anonymization.
	a := kanon.New(gens)
	a.MaxSuppressFraction = 0.2
	res, err := sc.RunFRED(FREDOptions{Anonymizer: a, MaxK: 8, Estimator: fusion.Rank{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.OptimalK < 2 {
		t.Errorf("optimal k = %d", res.OptimalK)
	}
}

func TestScenarioAssess(t *testing.T) {
	sc, err := UniversityScenario(ScenarioOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sc.Release(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sc.Assess(rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Records != 40 {
		t.Errorf("records = %d", a.Records)
	}
	// The fusion attack must at least match the midpoint guesser on class
	// disclosure, order most of the cohort correctly, and breach strictly
	// more records at ±10% than the no-fusion adversary.
	if a.Class3 < a.BaselineClass3 {
		t.Errorf("class hit %.2f below midpoint baseline %.2f", a.Class3, a.BaselineClass3)
	}
	if a.Rank < 0.5 {
		t.Errorf("rank exposure %.2f too low for correlated data", a.Rank)
	}
	if a.Breach20 <= 0 {
		t.Error("no record breached at ±20%, implausible for this cohort")
	}
	base, err := sc.Assess(rel, fusion.Midpoint{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Breach10 <= base.Breach10 {
		t.Errorf("fusion ±10%% breach %.2f not above midpoint %.2f", a.Breach10, base.Breach10)
	}
}

// TestDiversityGuardsDoNotStopFusion verifies the paper's related-work
// argument (Section 2): partition-quality guards such as t-closeness reason
// about the released equivalence classes, but the fusion breach flows
// through identifier-keyed web data — so a release can satisfy the guard and
// still leak through fusion.
func TestDiversityGuardsDoNotStopFusion(t *testing.T) {
	sc, err := UniversityScenario(ScenarioOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// The anonymized table before suppression (QIs generalized, salary
	// attached) is what diversity criteria inspect.
	anon, err := microagg.New().Anonymize(sc.P, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct 2-diversity: every QI equivalence class holds at least two
	// distinct salaries.
	sCol := anon.Schema().IndicesOf(dataset.Sensitive)[0]
	for _, class := range anon.GroupBy(anon.Schema().IndicesOf(dataset.QuasiIdentifier)) {
		distinct := make(map[string]bool)
		for _, i := range class {
			distinct[anon.Cell(i, sCol).String()] = true
		}
		if len(distinct) < 2 {
			t.Skipf("cohort does not satisfy 2-diversity at k=8; guard comparison not applicable")
		}
	}
	// Even so, the fusion attack on the released (suppressed) version gains
	// information.
	rel, err := sc.Release(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, before, after, err := sc.Attack(rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("fusion gained nothing on a diverse release: %g ≥ %g", after, before)
	}
}
