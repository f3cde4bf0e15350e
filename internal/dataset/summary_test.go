package dataset

import (
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	tb := tableI(t)
	if err := tb.SetCell(0, 3, Span(20, 30)); err != nil { // Age interval
		t.Fatal(err)
	}
	tb.SuppressColumn(5)
	sums := Summarize(tb)
	if len(sums) != 6 {
		t.Fatalf("summaries = %d", len(sums))
	}
	age := sums[3]
	if age.Name != "Age" || age.Class != QuasiIdentifier || age.Kind != Number {
		t.Errorf("age meta = %+v", age)
	}
	if age.Generalized != 1 {
		t.Errorf("age generalized = %d", age.Generalized)
	}
	// Ages: interval midpoint 25, then 29, 21, 23 → min 21, max 29.
	if age.Min != 21 || age.Max != 29 {
		t.Errorf("age range = [%g, %g]", age.Min, age.Max)
	}
	if age.Mean != (25+29+21+23)/4.0 {
		t.Errorf("age mean = %g", age.Mean)
	}
	cond := sums[5]
	if cond.Nulls != 4 || cond.Distinct != 1 {
		t.Errorf("condition = %+v", cond)
	}
	// Text column numeric stats stay zero.
	if sums[0].Min != 0 || sums[0].Max != 0 || sums[0].Mean != 0 {
		t.Errorf("name stats = %+v", sums[0])
	}
}

func TestFormatSummary(t *testing.T) {
	out := FormatSummary(tableI(t))
	for _, want := range []string{"4 rows, 6 columns", "Zipcode", "quasi-identifier", "mean="} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
