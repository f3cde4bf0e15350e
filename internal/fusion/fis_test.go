package fusion

import (
	"strings"
	"testing"

	"repro/internal/fuzzy"
)

const incomeFIS = `
OUTPUT income 40000 160000
TERM income low  trap -inf -inf 70000 100000
TERM income med  tri 70000 100000 130000
TERM income high trap 100000 130000 inf inf
INPUT valuation 1 10
TERM valuation low  trap -inf -inf 4 6
TERM valuation high trap 4 6 inf inf
RULE IF valuation IS low THEN income IS low
RULE IF valuation IS high THEN income IS high
`

func loadFIS(t *testing.T) *fuzzy.System {
	t.Helper()
	sys, err := fuzzy.ParseFIS(strings.NewReader(incomeFIS))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestFISEstimator(t *testing.T) {
	est := &FIS{System: loadFIS(t), FeatureNames: []string{"valuation"}}
	got, err := estimateRows(est, [][]float64{{1}, {9}}, Range{40000, 160000})
	if err != nil {
		t.Fatal(err)
	}
	if !(got[0] < got[1]) {
		t.Errorf("estimates unordered: %v", got)
	}
	if got[0] > 90000 || got[1] < 110000 {
		t.Errorf("extremes not separated: %v", got)
	}
	if est.Name() == "" {
		t.Error("empty name")
	}
}

func TestFISNoRuleFallsBackToMidpoint(t *testing.T) {
	// Dead zone at valuation 5: both trapezoids are zero there.
	est := &FIS{System: loadFIS(t), FeatureNames: []string{"valuation"}}
	got, err := estimateRows(est, [][]float64{{5}}, Range{40000, 160000})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 100000 {
		t.Errorf("fallback = %g, want 100000", got[0])
	}
}

func TestFISErrors(t *testing.T) {
	sys := loadFIS(t)
	if _, err := estimateRows(&FIS{FeatureNames: []string{"x"}}, [][]float64{{1}}, Range{0, 1}); err == nil {
		t.Error("nil system accepted")
	}
	if _, err := estimateRows(&FIS{System: sys, FeatureNames: []string{"valuation"}}, nil, Range{0, 1}); err == nil {
		t.Error("no records accepted")
	}
	if _, err := estimateRows(&FIS{System: sys, FeatureNames: []string{"a", "b"}}, [][]float64{{1}}, Range{0, 1}); err == nil {
		t.Error("name width mismatch accepted")
	}
	if _, err := estimateRows(&FIS{System: sys, FeatureNames: []string{"wrong"}}, [][]float64{{1}}, Range{40000, 160000}); err == nil {
		t.Error("unmapped system input accepted")
	}
	if _, err := estimateRows(&FIS{System: sys, FeatureNames: []string{"valuation"}}, [][]float64{{1}}, Range{5, 5}); err == nil {
		t.Error("empty range accepted")
	}
}
