package repro

// Cross-module integration tests: CSV round-trips through the attack
// pipeline, and parser robustness.

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fuzzy"
	"repro/internal/kanon"
	"repro/internal/metrics"
	"repro/internal/risk"
)

// TestPipelineSurvivesCSVRoundTrip runs the attack on tables that have been
// serialized and re-read — the CLI path — and checks the numbers match the
// in-memory path exactly.
func TestPipelineSurvivesCSVRoundTrip(t *testing.T) {
	sc, err := UniversityScenario(ScenarioOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	release, err := sc.Release(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(tb *dataset.Table) *dataset.Table {
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, tb); err != nil {
			t.Fatal(err)
		}
		out, err := dataset.ReadCSV(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	p2, q2, rel2 := roundTrip(sc.P), roundTrip(sc.Q), roundTrip(release)

	_, before1, after1, err := sc.Attack(release, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, before2, after2, err := core.Attack(p2, rel2, core.AttackConfig{
		Aux: q2, Estimator: sc.Estimator(), SensitiveRange: sc.SensitiveRange,
	})
	if err != nil {
		t.Fatal(err)
	}
	if before1 != before2 || after1 != after2 {
		t.Errorf("CSV path diverged: (%g, %g) vs (%g, %g)", before1, after1, before2, after2)
	}
}

// TestKanonReleasesAlwaysKAnonymousProperty: whatever the cohort seed and k,
// the generalization anonymizer's output passes the k-anonymity check.
func TestKanonReleasesAlwaysKAnonymousProperty(t *testing.T) {
	gens, err := reviewLadders()
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw)%4 + 2 // 2..5
		sc, err := UniversityScenario(ScenarioOptions{Seed: seed, N: 20})
		if err != nil {
			return false
		}
		a := kanon.New(gens)
		a.MaxSuppressFraction = 0.25
		rel, err := a.Anonymize(sc.P, k)
		if err != nil {
			return false
		}
		return kanon.IsKAnonymous(rel, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestRuleParserNeverPanics feeds the rule parser adversarial strings; it
// must return errors, never panic.
func TestRuleParserNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = fuzzy.ParseRule(s)
		_, _ = fuzzy.ParseRules(s + "\n" + s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestUtilityMetricsAgreeOnOrdering: discernibility utility must order two
// releases consistently (more generalization → lower utility).
func TestUtilityMetricsAgreeOnOrdering(t *testing.T) {
	sc, err := UniversityScenario(ScenarioOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rel3, err := sc.Release(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel10, err := sc.Release(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	u3, err := metrics.Utility(rel3, 3)
	if err != nil {
		t.Fatal(err)
	}
	u10, err := metrics.Utility(rel10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if u10 >= u3 {
		t.Errorf("utility ordering broken: U(10)=%g ≥ U(3)=%g", u10, u3)
	}
}

// TestRiskDropsWithK: the ±10% breach rate must not rise substantially as k
// grows (the defense is doing something).
func TestRiskTrendsWithK(t *testing.T) {
	sc, err := UniversityScenario(ScenarioOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	breach := func(k int) float64 {
		rel, err := sc.Release(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sc.Assess(rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		return a.Breach10
	}
	b2, b14 := breach(2), breach(14)
	if b14 > b2+0.10 {
		t.Errorf("±10%% breach rose with k: %.2f at k=2 vs %.2f at k=14", b2, b14)
	}
	// Sanity: assessments are well-formed.
	var _ *risk.Assessment
}
