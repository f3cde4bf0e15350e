package dataset

import (
	"fmt"
	"math"
	"testing"
)

// buildRows appends n generated rows through fn to both a chunked Builder and
// a plain Table and checks the two materializations are cellwise equal —
// chunked ingest must be invisible to readers.
func buildRows(t *testing.T, schema *Schema, n int, fn func(i int) []Value) *Table {
	t.Helper()
	b := NewBuilder(schema)
	direct := New(schema)
	for i := 0; i < n; i++ {
		row := fn(i)
		if err := b.AppendRow(row); err != nil {
			t.Fatalf("builder row %d: %v", i, err)
		}
		if err := direct.AppendRow(row); err != nil {
			t.Fatalf("direct row %d: %v", i, err)
		}
	}
	got := b.Table()
	if got.NumRows() != n {
		t.Fatalf("built table has %d rows, want %d", got.NumRows(), n)
	}
	if !got.Equal(direct) {
		t.Fatalf("chunked build differs from direct build at n=%d", n)
	}
	return got
}

func builderTestSchema() *Schema {
	return MustSchema(
		Column{Name: "Name", Class: Identifier, Kind: Text},
		Column{Name: "Score", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "Income", Class: Sensitive, Kind: Number},
	)
}

// TestBuilderChunkBoundaries exercises row counts straddling the chunk size,
// with nulls, intervals and repeated dictionary strings crossing chunk
// boundaries.
func TestBuilderChunkBoundaries(t *testing.T) {
	schema := builderTestSchema()
	for _, n := range []int{0, 1, builderChunkRows - 1, builderChunkRows, builderChunkRows + 1, 3*builderChunkRows + 17} {
		got := buildRows(t, schema, n, func(i int) []Value {
			name := Str(fmt.Sprintf("person-%d", i%1000)) // repeats across chunks
			score := Value(Num(float64(i) / 3))
			switch i % 7 {
			case 3:
				score = NullValue()
			case 5:
				score = Span(float64(i), float64(i+10))
			}
			return []Value{name, score, Num(40000 + float64(i))}
		})
		// Spot-check cell reconstruction across a chunk boundary.
		if n > builderChunkRows {
			i := builderChunkRows
			if s, _ := got.Cell(i, 0).Text(); s != fmt.Sprintf("person-%d", i%1000) {
				t.Fatalf("n=%d: row %d name = %q", n, i, s)
			}
		}
	}
}

// TestBuilderAllNullLeadingChunk covers a column whose first whole chunk is
// null before the first real value arrives — the lazy-buffer backfill case.
func TestBuilderAllNullLeadingChunk(t *testing.T) {
	schema := builderTestSchema()
	n := builderChunkRows + 100
	buildRows(t, schema, n, func(i int) []Value {
		if i < builderChunkRows {
			return []Value{NullValue(), NullValue(), Num(float64(i))}
		}
		return []Value{Str("late"), Num(float64(i)), Num(float64(i))}
	})
}

// TestBuilderRejectsBadRows checks validation happens before any write.
func TestBuilderRejectsBadRows(t *testing.T) {
	b := NewBuilder(builderTestSchema())
	if err := b.AppendRow([]Value{Str("x"), Num(1)}); err == nil {
		t.Fatal("short row must fail")
	}
	if err := b.AppendRow([]Value{Num(3), Num(1), Num(2)}); err == nil {
		t.Fatal("number in text column must fail")
	}
	if err := b.AppendRecord([]string{"ok", "1.5", "70000"}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendRecord([]string{"bad", "not-a-number", "70000"}); err == nil {
		t.Fatal("unparsable numeric field must fail")
	}
	got := b.Table()
	if got.NumRows() != 1 {
		t.Fatalf("table has %d rows, want 1", got.NumRows())
	}
}

// TestMatrixFlatMatchesCells pins MatrixFlat to the table's cells bit for
// bit: Value.Float of each (interval midpoints), def where a cell has no
// float (null or text).
func TestMatrixFlatMatchesCells(t *testing.T) {
	schema := MustSchema(
		Column{Name: "A", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "B", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "C", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "T", Class: QuasiIdentifier, Kind: Text},
	)
	tb := New(schema)
	tb.MustAppendRow(Num(1.25), Num(-3), Num(9), Str("x"))
	tb.MustAppendRow(Span(2, 5), Num(0.1), Num(-0.5), NullValue())
	tb.MustAppendRow(NullValue(), Span(-1, 1), Num(1e300), Str("y"))
	tb.MustAppendRow(Num(7), NullValue(), Num(0), Str("x"))
	// C is all numbers, the typed-buffer copy; A and B take the cell path.
	cols := []int{0, 1, 2, 3, 2}
	const def = 42.5
	got := tb.MatrixFlat(cols, def)
	if len(got) != tb.NumRows()*len(cols) {
		t.Fatalf("flat length %d, want %d", len(got), tb.NumRows()*len(cols))
	}
	for i := 0; i < tb.NumRows(); i++ {
		for j, c := range cols {
			want, ok := tb.Cell(i, c).Float()
			if !ok {
				want = def
			}
			if g := got[i*len(cols)+j]; math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("cell (%d,%d): flat %v, Cell.Float %v", i, c, g, want)
			}
		}
	}
}
