package kanon

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
)

// paperTableII builds the enterprise data of the paper's Table II with the
// three investment quasi-identifiers on a 1–10 scale.
func paperTableII(t *testing.T) *dataset.Table {
	t.Helper()
	tb := dataset.New(dataset.MustSchema(
		dataset.Column{Name: "Name", Class: dataset.Identifier, Kind: dataset.Text},
		dataset.Column{Name: "InvstVol", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "InvstAmt", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "Valuation", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "Income", Class: dataset.Sensitive, Kind: dataset.Number},
	))
	tb.MustAppendRow(dataset.Str("Alice"), dataset.Num(8), dataset.Num(7), dataset.Num(4), dataset.Num(91250))
	tb.MustAppendRow(dataset.Str("Bob"), dataset.Num(5), dataset.Num(4), dataset.Num(4), dataset.Num(74340))
	tb.MustAppendRow(dataset.Str("Christine"), dataset.Num(4), dataset.Num(5), dataset.Num(5), dataset.Num(75123))
	tb.MustAppendRow(dataset.Str("Robert"), dataset.Num(9), dataset.Num(8), dataset.Num(9), dataset.Num(98230))
	return tb
}

func investGens(t *testing.T) map[string]hierarchy.Generalizer {
	t.Helper()
	// The 1–10 index generalizes through [1-5]/[5-10]-style rungs: base
	// width 5 buckets at level 1, whole domain at level 2.
	mk := func() hierarchy.Generalizer {
		l, err := hierarchy.NewLadder(0, 10, 5)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	return map[string]hierarchy.Generalizer{
		"InvstVol": mk(), "InvstAmt": mk(), "Valuation": mk(),
	}
}

func TestAnonymizeReproducesTableIII(t *testing.T) {
	tb := paperTableII(t)
	a := New(investGens(t))
	res, err := a.AnonymizeDetail(tb, 2)
	if err != nil {
		t.Fatalf("AnonymizeDetail: %v", err)
	}
	anon := res.Table
	if !IsKAnonymous(anon, 2) {
		t.Fatalf("result not 2-anonymous:\n%s", anon)
	}
	// Identifiers retained — the enterprise property.
	for i := 0; i < tb.NumRows(); i++ {
		if !anon.Cell(i, 0).Equal(tb.Cell(i, 0)) {
			t.Errorf("identifier row %d modified", i)
		}
	}
	// Note: the paper's Table III ([5-10],[5-10],[1-5] etc.) keeps all four
	// rows distinct and so is not strictly 2-anonymous; the true lattice
	// minimum for this data is levels (2,2,1) — Valuation in [0-5]/[5-10]
	// buckets, the other two indexes fully generalized — giving the pairs
	// {Alice,Bob} and {Christine,Robert}.
	wantLevels := map[string]int{"InvstVol": 2, "InvstAmt": 2, "Valuation": 1}
	for name, want := range wantLevels {
		if got := res.Levels[name]; got != want {
			t.Errorf("level[%s] = %d, want %d", name, got, want)
		}
	}
	if got := anon.Cell(0, 3).String(); got != "[0-5]" { // Alice Valuation 4
		t.Errorf("Alice Valuation = %s, want [0-5]", got)
	}
	if got := anon.Cell(3, 3).String(); got != "[5-10]" { // Robert Valuation 9
		t.Errorf("Robert Valuation = %s, want [5-10]", got)
	}
}

func TestAnonymizeMinimality(t *testing.T) {
	// Already 1-anonymous data: k=1 needs no generalization at all.
	tb := paperTableII(t)
	a := New(investGens(t))
	res, err := a.AnonymizeDetail(tb, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, lvl := range res.Levels {
		if lvl != 0 {
			t.Errorf("k=1 generalized %q to level %d", name, lvl)
		}
	}
	if !res.Table.Equal(tb) {
		t.Error("k=1 should be the identity")
	}
}

func TestAnonymizeWithSuppression(t *testing.T) {
	// Three clustered rows plus one far outlier. With suppression allowed,
	// the outlier is suppressed instead of dragging everyone to the top.
	tb := dataset.New(dataset.MustSchema(
		dataset.Column{Name: "Name", Class: dataset.Identifier, Kind: dataset.Text},
		dataset.Column{Name: "Age", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "Income", Class: dataset.Sensitive, Kind: dataset.Number},
	))
	tb.MustAppendRow(dataset.Str("a"), dataset.Num(21), dataset.Num(1))
	tb.MustAppendRow(dataset.Str("b"), dataset.Num(22), dataset.Num(2))
	tb.MustAppendRow(dataset.Str("c"), dataset.Num(23), dataset.Num(3))
	tb.MustAppendRow(dataset.Str("d"), dataset.Num(99), dataset.Num(4))
	lad, err := hierarchy.NewLadder(0, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := &Anonymizer{
		Generalizers:        map[string]hierarchy.Generalizer{"Age": lad},
		MaxSuppressFraction: 0.25,
	}
	res, err := a.AnonymizeDetail(tb, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suppressed) != 1 || res.Suppressed[0] != 3 {
		t.Errorf("Suppressed = %v, want [3]", res.Suppressed)
	}
	// The outlier's QI and sensitive cells are gone but its identifier stays.
	if !res.Table.Cell(3, 1).IsNull() || !res.Table.Cell(3, 2).IsNull() {
		t.Error("outlier cells not suppressed")
	}
	if got, _ := res.Table.Cell(3, 0).Text(); got != "d" {
		t.Error("outlier identifier should stay")
	}
	// The cluster must not be generalized to the whole domain.
	if res.Levels["Age"] >= lad.MaxLevel() {
		t.Errorf("Age over-generalized to level %d", res.Levels["Age"])
	}
	if !IsKAnonymous(res.Table, 3) {
		t.Error("result not 3-anonymous")
	}
}

func TestAnonymizeUnsatisfiable(t *testing.T) {
	tb := paperTableII(t)
	a := New(investGens(t))
	if _, err := a.Anonymize(tb, 5); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := a.Anonymize(tb, 0); err == nil {
		t.Error("k = 0 accepted")
	}
}

func TestAnonymizeMissingHierarchy(t *testing.T) {
	tb := paperTableII(t)
	a := New(map[string]hierarchy.Generalizer{})
	if _, err := a.Anonymize(tb, 2); err == nil {
		t.Error("missing hierarchy accepted")
	}
}

func TestIsKAnonymous(t *testing.T) {
	tb := paperTableII(t)
	if IsKAnonymous(tb, 2) {
		t.Error("raw Table II reported 2-anonymous")
	}
	if !IsKAnonymous(tb, 1) {
		t.Error("raw table not even 1-anonymous")
	}
	// A table with no QIs is never k-anonymous by convention.
	noQI := dataset.New(dataset.MustSchema(
		dataset.Column{Name: "S", Class: dataset.Sensitive, Kind: dataset.Number}))
	if IsKAnonymous(noQI, 1) {
		t.Error("no-QI table reported anonymous")
	}
}

func TestVectorsOfHeight(t *testing.T) {
	got := vectorsOfHeight([]int{2, 1}, 2)
	// Vectors with sum 2 bounded by (2,1): (1,1), (2,0).
	want := [][]int{{1, 1}, {2, 0}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Errorf("vector %d = %v, want %v", i, got[i], want[i])
		}
	}
	if got := vectorsOfHeight([]int{1}, 5); len(got) != 0 {
		t.Errorf("impossible height yielded %v", got)
	}
	if got := vectorsOfHeight(nil, 0); len(got) != 1 {
		t.Errorf("empty maxima height 0 = %v, want one empty vector", got)
	}
}

func TestName(t *testing.T) {
	if New(nil).Name() == "" {
		t.Error("empty name")
	}
}
