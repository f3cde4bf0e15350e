package fuzzy

import (
	"strings"
	"testing"
)

func TestParseSimpleRule(t *testing.T) {
	r, err := ParseRule("IF valuation IS high THEN income IS high")
	if err != nil {
		t.Fatal(err)
	}
	if r.OutputTerm != "high" || r.outputVar != "income" || r.Weight != 1 {
		t.Errorf("rule = %+v", r)
	}
	c, ok := r.Antecedent.(cond)
	if !ok || c.variable != "valuation" || c.term != "high" {
		t.Errorf("antecedent = %#v", r.Antecedent)
	}
}

func TestParseRuleWithWeight(t *testing.T) {
	r, err := ParseRule("IF a IS x THEN out IS y WEIGHT 0.25")
	if err != nil {
		t.Fatal(err)
	}
	if r.Weight != 0.25 {
		t.Errorf("weight = %g", r.Weight)
	}
	if _, err := ParseRule("IF a IS x THEN out IS y WEIGHT 1.5"); err == nil {
		t.Error("weight > 1 accepted")
	}
	if _, err := ParseRule("IF a IS x THEN out IS y WEIGHT banana"); err == nil {
		t.Error("non-numeric weight accepted")
	}
}

func TestParseConnectivesAndPrecedence(t *testing.T) {
	// AND binds tighter than OR: a OR (b AND c).
	r, err := ParseRule("IF a IS x OR b IS y AND c IS z THEN out IS t")
	if err != nil {
		t.Fatal(err)
	}
	or, ok := r.Antecedent.(orExpr)
	if !ok || len(or.kids) != 2 {
		t.Fatalf("antecedent = %#v", r.Antecedent)
	}
	if _, ok := or.kids[0].(cond); !ok {
		t.Errorf("left kid = %#v", or.kids[0])
	}
	if _, ok := or.kids[1].(andExpr); !ok {
		t.Errorf("right kid = %#v", or.kids[1])
	}
	// Parentheses override.
	r, err = ParseRule("IF (a IS x OR b IS y) AND c IS z THEN out IS t")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Antecedent.(andExpr); !ok {
		t.Errorf("parenthesized antecedent = %#v", r.Antecedent)
	}
}

func TestParseNot(t *testing.T) {
	r, err := ParseRule("IF NOT a IS x THEN out IS y")
	if err != nil {
		t.Fatal(err)
	}
	n, ok := r.Antecedent.(notExpr)
	if !ok {
		t.Fatalf("antecedent = %#v", r.Antecedent)
	}
	if _, ok := n.inner.(cond); !ok {
		t.Errorf("inner = %#v", n.inner)
	}
	// Double negation parses.
	if _, err := ParseRule("IF NOT NOT a IS x THEN out IS y"); err != nil {
		t.Errorf("double NOT rejected: %v", err)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	r, err := ParseRule("if Employment is High and Property-Holdings is High then Income is High")
	if err != nil {
		t.Fatal(err)
	}
	and, ok := r.Antecedent.(andExpr)
	if !ok || len(and.kids) != 2 {
		t.Fatalf("antecedent = %#v", r.Antecedent)
	}
	if c := and.kids[1].(cond); c.variable != "Property-Holdings" {
		t.Errorf("variable = %q", c.variable)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"valuation IS high THEN income IS high", // missing IF
		"IF valuation high THEN income IS high", // missing IS
		"IF valuation IS high income IS high",   // missing THEN
		"IF valuation IS high THEN income high", // missing output IS
		"IF valuation IS high THEN income IS",   // missing term
		"IF (a IS x THEN out IS y",              // unclosed paren
		"IF a IS x THEN out IS y trailing junk", // trailing tokens
		"IF IS IS x THEN out IS y",              // reserved word as ident
		"IF a IS x THEN THEN IS y",              // reserved word as output var
		"IF a IS x AND THEN out IS y",           // dangling AND
		"IF a IS x THEN out IS y WEIGHT",        // missing weight value
		"IF a & b THEN out IS y",                // stray symbol
	}
	for _, src := range bad {
		if _, err := ParseRule(src); err == nil {
			t.Errorf("ParseRule(%q) accepted", src)
		}
	}
}

func TestParseRules(t *testing.T) {
	rules, err := ParseRules(`
# The paper's simplistic knowledge rules, uniform weights.
IF valuation IS high THEN income IS high

IF valuation IS low  THEN income IS low
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %d", len(rules))
	}
	if _, err := ParseRules("IF broken THEN"); err == nil {
		t.Error("bad batch accepted")
	}
	if !strings.Contains(errString(err), "") { // err is nil here; just exercise helper
		_ = err
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestExprStringRoundTrip(t *testing.T) {
	// String renderings re-parse to an equivalent structure.
	srcs := []string{
		"IF a IS x THEN out IS y",
		"IF a IS x AND b IS y THEN out IS z",
		"IF NOT (a IS x OR b IS y) THEN out IS z",
	}
	for _, src := range srcs {
		r, err := ParseRule(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		re := "IF " + r.Antecedent.String() + " THEN out IS " + r.OutputTerm
		if _, err := ParseRule(re); err != nil {
			t.Errorf("rendering %q of %q does not re-parse: %v", re, src, err)
		}
	}
}

func TestStrengthEvaluation(t *testing.T) {
	grades := map[string]map[string]float64{
		"a": {"x": 0.3},
		"b": {"y": 0.8},
	}
	tests := []struct {
		src  string
		want float64
	}{
		{"IF a IS x THEN o IS t", 0.3},
		{"IF a IS x AND b IS y THEN o IS t", 0.3},
		{"IF a IS x OR b IS y THEN o IS t", 0.8},
		{"IF NOT a IS x THEN o IS t", 0.7},
		{"IF NOT (a IS x AND b IS y) THEN o IS t", 0.7},
	}
	for _, tc := range tests {
		r, err := ParseRule(tc.src)
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		if got := r.Antecedent.strength(grades); !almost(got, tc.want, 1e-12) {
			t.Errorf("%q strength = %g, want %g", tc.src, got, tc.want)
		}
	}
}
