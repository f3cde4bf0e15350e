package fuzzy

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// incomeSystem builds a small version of the paper's Figure 2: valuation and
// property inputs, income output with Low/Med/High over [40000, 160000].
func incomeSystem(t *testing.T) *System {
	t.Helper()
	income, err := NewVariable("income", 40000, 160000)
	if err != nil {
		t.Fatal(err)
	}
	if err := income.ThreeTerms("low", "med", "high"); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(income)
	if err != nil {
		t.Fatal(err)
	}
	valuation, err := NewVariable("valuation", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := valuation.ThreeTerms("low", "med", "high"); err != nil {
		t.Fatal(err)
	}
	property, err := NewVariable("property", 0, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if err := property.ThreeTerms("low", "med", "high"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddInput(valuation); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddInput(property); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{
		"IF valuation IS low THEN income IS low",
		"IF valuation IS med THEN income IS med",
		"IF valuation IS high THEN income IS high",
		"IF property IS low THEN income IS low",
		"IF property IS med THEN income IS med",
		"IF property IS high THEN income IS high",
	} {
		if err := sys.AddRuleText(r); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestVariableBasics(t *testing.T) {
	v, err := NewVariable("x", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.ThreeTerms("low", "med", "high"); err != nil {
		t.Fatal(err)
	}
	if got := v.Terms(); len(got) != 3 || got[0] != "low" {
		t.Errorf("Terms = %v", got)
	}
	g := v.Fuzzify(0)
	if g["low"] != 1 || g["high"] != 0 {
		t.Errorf("Fuzzify(0) = %v", g)
	}
	if _, err := v.Term("nope"); err == nil {
		t.Error("unknown term accepted")
	}
}

func TestVariableRuspiniPartition(t *testing.T) {
	// UniformTerms grades sum to 1 everywhere inside the domain.
	v, err := NewVariable("x", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.UniformTerms([]string{"a", "b", "c", "d"}); err != nil {
		t.Fatal(err)
	}
	for x := 0.0; x <= 100; x += 7.3 {
		var sum float64
		for _, g := range v.Fuzzify(x) {
			sum += g
		}
		if !almost(sum, 1, 1e-9) {
			t.Errorf("grades at %g sum to %g", x, sum)
		}
	}
}

func TestVariableValidation(t *testing.T) {
	if _, err := NewVariable("", 0, 1); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewVariable("x", 5, 5); err == nil {
		t.Error("empty domain accepted")
	}
	v, _ := NewVariable("x", 0, 1)
	if err := v.AddTerm("", Singleton{}); err == nil {
		t.Error("empty term name accepted")
	}
	if err := v.AddTerm("t", nil); err == nil {
		t.Error("nil function accepted")
	}
	if err := v.AddTerm("t", Singleton{}); err != nil {
		t.Fatal(err)
	}
	if err := v.AddTerm("t", Singleton{}); err == nil {
		t.Error("duplicate term accepted")
	}
	if err := v.UniformTerms([]string{"only"}); err == nil {
		t.Error("single term partition accepted")
	}
}

func TestEvaluateMonotoneScenario(t *testing.T) {
	sys := incomeSystem(t)
	low, err := sys.Evaluate(map[string]float64{"valuation": 1, "property": 500})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := sys.Evaluate(map[string]float64{"valuation": 5, "property": 3000})
	if err != nil {
		t.Fatal(err)
	}
	high, err := sys.Evaluate(map[string]float64{"valuation": 9, "property": 5500})
	if err != nil {
		t.Fatal(err)
	}
	if !(low < mid && mid < high) {
		t.Errorf("not monotone: low=%g mid=%g high=%g", low, mid, high)
	}
	// All estimates stay inside the output domain.
	for _, v := range []float64{low, mid, high} {
		if v < 40000 || v > 160000 {
			t.Errorf("estimate %g escapes the output domain", v)
		}
	}
	// The extreme cases land in the right thirds of the domain.
	if low > 80000 {
		t.Errorf("low scenario estimated %g", low)
	}
	if high < 120000 {
		t.Errorf("high scenario estimated %g", high)
	}
}

func TestEvaluateConflictingInputs(t *testing.T) {
	// High valuation but low property: both rules fire, centroid lands
	// between the extremes.
	sys := incomeSystem(t)
	got, err := sys.Evaluate(map[string]float64{"valuation": 10, "property": 0})
	if err != nil {
		t.Fatal(err)
	}
	if got < 70000 || got > 130000 {
		t.Errorf("conflicting inputs → %g, want a central estimate", got)
	}
}

// TestEvaluateDeadZone: with singleton output terms, an input on which no
// rule fires (x=5: low=0, high=0) reports ErrNoRuleFired.
func TestEvaluateDeadZone(t *testing.T) {
	out, err := NewVariable("income", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.AddTerm("low", Singleton{X: 20}); err != nil {
		t.Fatal(err)
	}
	if err := out.AddTerm("high", Singleton{X: 80}); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(out)
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewVariable("x", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.ThreeTerms("low", "med", "high"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddInput(x); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddRuleText("IF x IS low THEN income IS low"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddRuleText("IF x IS high THEN income IS high"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Evaluate(map[string]float64{"x": 5}); !errors.Is(err, ErrNoRuleFired) {
		t.Errorf("dead zone error = %v", err)
	}
}

func TestSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil); err == nil {
		t.Error("nil output accepted")
	}
	bare, _ := NewVariable("out", 0, 1)
	if _, err := NewSystem(bare); err == nil {
		t.Error("termless output accepted")
	}
	out, _ := NewVariable("out", 0, 1)
	if err := out.ThreeTerms("l", "m", "h"); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddInput(nil); err == nil {
		t.Error("nil input accepted")
	}
	clash, _ := NewVariable("out", 0, 1)
	_ = clash.ThreeTerms("l", "m", "h")
	if err := sys.AddInput(clash); err == nil {
		t.Error("input/output name clash accepted")
	}
	in, _ := NewVariable("x", 0, 1)
	if err := sys.AddInput(in); err == nil {
		t.Error("termless input accepted")
	}
	_ = in.ThreeTerms("l", "m", "h")
	if err := sys.AddInput(in); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddInput(in); err == nil {
		t.Error("duplicate input accepted")
	}
	// Rule validation.
	if err := sys.AddRuleText("IF nope IS l THEN out IS l"); err == nil {
		t.Error("unknown input variable accepted")
	}
	if err := sys.AddRuleText("IF x IS nope THEN out IS l"); err == nil {
		t.Error("unknown input term accepted")
	}
	if err := sys.AddRuleText("IF x IS l THEN out IS nope"); err == nil {
		t.Error("unknown output term accepted")
	}
	if err := sys.AddRuleText("IF x IS l THEN wrongvar IS l"); err == nil {
		t.Error("wrong output variable accepted")
	}
	if err := sys.AddRule(Rule{}); err == nil {
		t.Error("empty rule accepted")
	}
	// Evaluate before rules exist.
	if _, err := sys.Evaluate(map[string]float64{"x": 0.5}); err == nil {
		t.Error("ruleless evaluation accepted")
	}
	if err := sys.AddRuleText("IF x IS l THEN out IS l"); err != nil {
		t.Fatal(err)
	}
	// Missing input at evaluation time.
	if _, err := sys.Evaluate(map[string]float64{}); err == nil {
		t.Error("missing input accepted")
	}
	if got := len(sys.rules); got != 1 {
		t.Errorf("rules = %d", got)
	}
	if got := len(sys.Inputs()); got != 1 {
		t.Errorf("Inputs() = %d", got)
	}
	if sys.Output().Name != "out" {
		t.Error("Output() wrong")
	}
}

// Property: the centroid estimate always stays inside the output domain and
// is monotone in a single monotone input system.
func TestCentroidDomainProperty(t *testing.T) {
	out, err := NewVariable("y", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.ThreeTerms("l", "m", "h"); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(out)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewVariable("x", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ThreeTerms("l", "m", "h"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddInput(in); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{
		"IF x IS l THEN y IS l", "IF x IS m THEN y IS m", "IF x IS h THEN y IS h",
	} {
		if err := sys.AddRuleText(r); err != nil {
			t.Fatal(err)
		}
	}
	f := func(raw uint16) bool {
		x := float64(raw) / math.MaxUint16
		y, err := sys.Evaluate(map[string]float64{"x": x})
		if err != nil {
			return false
		}
		return y >= 0 && y <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
