package dataset

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// mixedSchema has one column per declared kind plus a sensitive number —
// the shape the columnar round-trip properties exercise.
func mixedSchema() *Schema {
	return MustSchema(
		Column{Name: "Name", Class: Identifier, Kind: Text},
		Column{Name: "Q", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "S", Class: Sensitive, Kind: Number},
	)
}

// randomValue derives a deterministic Value of any kind from fuzz bytes.
func randomValue(kind ValueKind, a, b uint8, f float64) Value {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		f = float64(a)
	}
	switch kind % 4 {
	case 0:
		return NullValue()
	case 1:
		return Num(f)
	case 2:
		lo := math.Min(f, float64(b))
		return Span(lo, lo+float64(a))
	default:
		return Str(string(rune('a'+a%26)) + string(rune('a'+b%26)))
	}
}

// TestColumnarRoundTripProperty: rows in → column buffers → rows out is the
// identity for every value kind and null placement.
func TestColumnarRoundTripProperty(t *testing.T) {
	f := func(kinds []uint8, floats []float64, salt uint8) bool {
		if len(kinds) > 40 {
			kinds = kinds[:40]
		}
		tb := New(mixedSchema())
		want := make([][]Value, len(kinds))
		for i, k := range kinds {
			f1 := 0.0
			if i < len(floats) {
				f1 = floats[i]
			}
			// Text column only holds Text/Null; numeric ones anything numeric.
			name := randomValue(ValueKind(3+4*(uint8(k)%2)), k, salt, f1) // Text or Null
			q := randomValue(ValueKind(k), k, salt, f1)
			if q.Kind() == Text {
				q = Num(float64(k))
			}
			s := randomValue(ValueKind(k/4), salt, k, f1)
			if s.Kind() == Text {
				s = NullValue()
			}
			row := []Value{name, q, s}
			if err := tb.AppendRow(row); err != nil {
				return false
			}
			want[i] = row
		}
		for i := range want {
			for j := range want[i] {
				if !tb.Cell(i, j).Equal(want[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestColumnarSetCellRoundTrip overwrites cells across every kind transition
// (number→interval→null→text where legal) and checks reads.
func TestColumnarSetCellRoundTrip(t *testing.T) {
	tb := New(mixedSchema())
	tb.MustAppendRow(Str("a"), Num(1), Num(10))
	tb.MustAppendRow(Str("b"), Num(2), Num(20))
	steps := []struct {
		col int
		v   Value
	}{
		{1, Span(0, 4)},      // number → interval
		{1, Num(7)},          // interval → number
		{1, NullValue()},     // number → null
		{1, Span(1, 3)},      // null → interval
		{0, NullValue()},     // text → null
		{0, Str("re-added")}, // null → text
		{2, NullValue()},     // sensitive suppressed
		{2, Num(42)},         // and restored
	}
	for _, st := range steps {
		if err := tb.SetCell(0, st.col, st.v); err != nil {
			t.Fatalf("SetCell(%v): %v", st.v, err)
		}
		if got := tb.Cell(0, st.col); !got.Equal(st.v) {
			t.Fatalf("after SetCell(%v): Cell = %v", st.v, got)
		}
	}
	// Row 1 was never touched.
	if got := tb.Cell(1, 1); !got.Equal(Num(2)) {
		t.Errorf("untouched row changed: %v", got)
	}
}

// TestCopyOnWriteIsolation: clones and views share buffers until one side
// mutates, and mutation never leaks across tables in either direction.
func TestCopyOnWriteIsolation(t *testing.T) {
	tb := New(mixedSchema())
	tb.MustAppendRow(Str("alice"), Num(1), Num(100))
	tb.MustAppendRow(Str("bob"), Span(2, 4), Num(200))

	cp := tb.Clone()
	if !cp.Equal(tb) {
		t.Fatal("clone not equal")
	}
	// Mutate the clone: the original must not change.
	if err := cp.SetCell(0, 1, Num(99)); err != nil {
		t.Fatal(err)
	}
	cp.SuppressColumn(2)
	if got := tb.Cell(0, 1); !got.Equal(Num(1)) {
		t.Errorf("clone mutation leaked into original: %v", got)
	}
	if tb.Cell(0, 2).IsNull() {
		t.Error("clone suppression leaked into original")
	}
	// Mutate the original: the clone must not change.
	if err := tb.SetCell(1, 1, NullValue()); err != nil {
		t.Fatal(err)
	}
	if got := cp.Cell(1, 1); !got.Equal(Span(2, 4)) {
		t.Errorf("original mutation leaked into clone: %v", got)
	}
	// Appending to one table leaves the other at its old length.
	tb.MustAppendRow(Str("carol"), Num(3), Num(300))
	if cp.NumRows() != 2 {
		t.Errorf("append leaked into clone: %d rows", cp.NumRows())
	}

	// Projections share storage but isolate mutations too.
	pr, err := tb.Project("Name", "Q")
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.SetCell(0, 0, Str("mallory")); err != nil {
		t.Fatal(err)
	}
	if got, _ := tb.Cell(0, 0).Text(); got != "alice" {
		t.Errorf("projection mutation leaked: %q", got)
	}
}

// TestWithSuppressedView: the release projection hides columns without
// copying or touching the source.
func TestWithSuppressedView(t *testing.T) {
	tb := New(mixedSchema())
	tb.MustAppendRow(Str("alice"), Num(1), Num(100))
	tb.MustAppendRow(Str("bob"), Num(2), Num(200))
	rel := tb.WithSuppressed(2)
	for i := 0; i < rel.NumRows(); i++ {
		if !rel.Cell(i, 2).IsNull() {
			t.Fatalf("row %d sensitive cell not suppressed", i)
		}
	}
	if tb.Cell(0, 2).IsNull() {
		t.Error("WithSuppressed mutated the source")
	}
	if got := rel.Cell(1, 0); !got.Equal(Str("bob")) {
		t.Errorf("shared column corrupted: %v", got)
	}
}

// TestWithColumnFloats: the fused-estimate view replaces exactly one column.
func TestWithColumnFloats(t *testing.T) {
	tb := New(mixedSchema())
	tb.MustAppendRow(Str("alice"), Num(1), NullValue())
	tb.MustAppendRow(Str("bob"), Num(2), NullValue())
	est := []float64{111, 222}
	phat, err := tb.WithColumnFloats(2, est)
	if err != nil {
		t.Fatal(err)
	}
	est[0] = -1 // the view must have copied the slice
	if got := phat.Cell(0, 2); !got.Equal(Num(111)) {
		t.Errorf("estimate cell = %v", got)
	}
	if !tb.Cell(0, 2).IsNull() {
		t.Error("WithColumnFloats mutated the source")
	}
	if _, err := tb.WithColumnFloats(0, est); err == nil {
		t.Error("text column accepted floats")
	}
	if _, err := tb.WithColumnFloats(2, []float64{1}); err == nil {
		t.Error("wrong-length vector accepted")
	}
}

// TestFingerprintCanonical: equal cells fingerprint identically regardless of
// build history; any cell change perturbs the fingerprint.
func TestFingerprintCanonical(t *testing.T) {
	build := func(mutate bool) *Table {
		tb := New(mixedSchema())
		tb.MustAppendRow(Str("alice"), Span(1, 3), Num(100))
		tb.MustAppendRow(Str("bob"), Num(2), NullValue())
		if mutate {
			// Interning churn: overwrite text cells so the dictionary history
			// differs while the final cells are equal.
			if err := tb.SetCell(0, 0, Str("zzz")); err != nil {
				t.Fatal(err)
			}
			if err := tb.SetCell(0, 0, Str("alice")); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	fp := func(tb *Table) []byte {
		var buf bytes.Buffer
		if err := tb.WriteFingerprint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(false), build(true)
	if !a.Equal(b) {
		t.Fatal("setup: tables should be equal")
	}
	if !bytes.Equal(fp(a), fp(b)) {
		t.Error("equal tables fingerprint differently")
	}
	if err := b.SetCell(1, 1, Num(3)); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fp(a), fp(b)) {
		t.Error("different tables fingerprint identically")
	}
}
