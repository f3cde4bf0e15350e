package dataset

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// samePartition checks that the Grouper's (ids, sizes) describe exactly the
// partition GroupBy computes, up to class numbering.
func samePartition(t *testing.T, tb *Table, cols []int, ids []int32, sizes []int32) {
	t.Helper()
	groups := tb.GroupBy(cols)
	if len(groups) != len(sizes) {
		t.Fatalf("grouper found %d classes, GroupBy %d", len(sizes), len(groups))
	}
	// Map each GroupBy group to the grouper class of its first row and demand
	// the mapping is a bijection consistent with every row.
	toClass := make(map[int]int32)
	seen := make(map[int32]bool)
	for gi, rows := range groups {
		c := ids[rows[0]]
		if seen[c] {
			t.Fatalf("grouper class %d matches two GroupBy groups", c)
		}
		seen[c] = true
		toClass[gi] = c
		if int(sizes[c]) != len(rows) {
			t.Fatalf("class %d sized %d, GroupBy group has %d rows", c, sizes[c], len(rows))
		}
		for _, r := range rows {
			if ids[r] != c {
				t.Fatalf("row %d in class %d, groupmates in %d", r, ids[r], c)
			}
		}
	}
}

func grouperSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "a", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "b", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "c", Class: QuasiIdentifier, Kind: Text},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGrouperMatchesGroupBy drives randomized tables mixing plain numbers,
// intervals, text, nulls and the tricky renderings (NaN, ±0, degenerate
// intervals, literal "*" text) through both partitioners.
func TestGrouperMatchesGroupBy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var g Grouper
	nums := []float64{0, math.Copysign(0, -1), 1, 1.5, math.NaN(), 42}
	texts := []string{"x", "y", "*", "z"}
	for trial := 0; trial < 60; trial++ {
		tb := New(grouperSchema(t))
		n := 1 + rng.Intn(120)
		for i := 0; i < n; i++ {
			row := make([]Value, 3)
			for j := 0; j < 2; j++ {
				switch rng.Intn(4) {
				case 0:
					row[j] = NullValue()
				case 1:
					lo := nums[rng.Intn(len(nums))]
					row[j] = Span(lo, lo+float64(rng.Intn(2)))
				default:
					row[j] = Num(nums[rng.Intn(len(nums))])
				}
			}
			if rng.Intn(5) == 0 {
				row[2] = NullValue()
			} else {
				row[2] = Str(texts[rng.Intn(len(texts))])
			}
			if err := tb.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		for _, cols := range [][]int{{0}, {2}, {0, 1}, {0, 1, 2}} {
			ids, sizes := g.Classes(tb, cols)
			samePartition(t, tb, cols, ids, sizes)
		}
	}
}

// TestGrouperSuppressedColumn covers the allNullCol storage (nil buffers).
func TestGrouperSuppressedColumn(t *testing.T) {
	tb := New(grouperSchema(t))
	tb.MustAppendRow(Num(1), Num(2), Str("x"))
	tb.MustAppendRow(Num(1), Num(3), Str("y"))
	tb.SuppressColumn(0)
	var g Grouper
	ids, sizes := g.Classes(tb, []int{0})
	if len(sizes) != 1 || sizes[0] != 2 || ids[0] != ids[1] {
		t.Fatalf("suppressed column should form one class, got ids=%v sizes=%v", ids, sizes)
	}
	samePartition(t, tb, []int{0}, ids, sizes)
}

// TestGrouperReuse proves warm calls reuse the returned buffers.
func TestGrouperReuse(t *testing.T) {
	tb := New(grouperSchema(t))
	for i := 0; i < 512; i++ {
		tb.MustAppendRow(Num(float64(i%7)), Num(float64(i%3)), Str("t"))
	}
	var g Grouper
	cols := []int{0, 1}
	g.Classes(tb, cols) // warm-up
	allocs := testing.AllocsPerRun(20, func() {
		g.Classes(tb, cols)
	})
	if allocs > 0 {
		t.Fatalf("warm Classes allocates %g times per run, want 0", allocs)
	}
}

// checkGrouper runs g over every column subset of tb and checks each
// partition against GroupBy and the ids' first-occurrence order: scanning
// the rows, each new id is the number of classes seen so far.
func checkGrouper(t *testing.T, g *Grouper, tb *Table, colSets [][]int) {
	t.Helper()
	for _, cols := range colSets {
		ids, sizes := g.Classes(tb, cols)
		samePartition(t, tb, cols, ids, sizes)
		next := int32(0)
		for i, id := range ids {
			if id > next {
				t.Fatalf("cols %v: row %d opens class %d before class %d", cols, i, id, next)
			}
			if id == next {
				next++
			}
		}
	}
}

// fuzzGrouperTable decodes data into a small table of two number columns,
// a text column and a number column suppressed whole: one byte per cell
// picks a null, a number, or an interval (degenerate ones included) from a
// palette holding ±0 and NaN, or a text holding a literal "*".
func fuzzGrouperTable(t *testing.T, data []byte) *Table {
	nums := []float64{0, math.Copysign(0, -1), 1, 1.5, math.NaN(), -2}
	texts := []string{"x", "*", "y"}
	s, err := NewSchema(
		Column{Name: "a", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "b", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "c", Class: QuasiIdentifier, Kind: Text},
		Column{Name: "d", Class: QuasiIdentifier, Kind: Number},
	)
	if err != nil {
		t.Fatal(err)
	}
	tb := New(s)
	for len(data) >= 3 && tb.NumRows() < 64 {
		row := make([]Value, 4)
		for j := 0; j < 2; j++ {
			b := data[j]
			lo := nums[int(b>>2)%len(nums)]
			switch b & 3 {
			case 0:
				row[j] = NullValue()
			case 1:
				row[j] = Span(lo, lo+float64(b>>6&1))
			default:
				row[j] = Num(lo)
			}
		}
		if data[2]&3 == 0 {
			row[2] = NullValue()
		} else {
			row[2] = Str(texts[int(data[2]>>2)%len(texts)])
		}
		row[3] = Num(float64(data[2] >> 4))
		if err := tb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
		data = data[3:]
	}
	return tb.WithSuppressed(3)
}

var fuzzGrouperCols = [][]int{{}, {0}, {1}, {2}, {3}, {0, 1}, {0, 3}, {0, 1, 2}, {2, 3, 1, 0}}

// FuzzGrouperMatchesGroupBy checks the one-pass Grouper against GroupBy on
// small generated tables, with real keys and with every key forced to
// collide. The seeds run in every go test; CI fuzzes it for 10 s.
func FuzzGrouperMatchesGroupBy(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 4})
	f.Add([]byte{0, 6, 0, 0, 6, 0, 6, 0, 5, 6, 6, 5})
	f.Add([]byte{1, 65, 1, 65, 1, 9, 2, 130, 13, 18, 18, 13, 1, 1, 0})
	f.Add([]byte{4, 5, 6, 8, 9, 10, 18, 17, 22, 4, 5, 6, 22, 21, 20, 3, 7, 11, 66, 70, 74})
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := fuzzGrouperTable(t, data)
		checkGrouper(t, &Grouper{}, tb, fuzzGrouperCols)
		checkGrouper(t, &Grouper{collide: true}, tb, fuzzGrouperCols)
	})
}

// TestGrouperAllKeysCollide forces every row key to collide, so that only
// the cell-by-cell comparison with each class's representative can tell
// the classes apart, and still expects GroupBy's partition.
func TestGrouperAllKeysCollide(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := Grouper{collide: true}
	for trial := 0; trial < 20; trial++ {
		data := make([]byte, 3*(1+rng.Intn(60)))
		rng.Read(data)
		tb := fuzzGrouperTable(t, data)
		checkGrouper(t, &g, tb, fuzzGrouperCols)
	}
	// Distinct cells of every kind in one column: each must be its own
	// class although all share one key.
	tb := New(grouperSchema(t))
	for _, v := range []Value{Num(0), Num(math.Copysign(0, -1)), Span(0, 0), Span(0, 1), Span(0, 2), NullValue(), Num(math.NaN()), Num(1)} {
		tb.MustAppendRow(v, Num(0), Str("*"))
		tb.MustAppendRow(v, Num(0), NullValue())
	}
	ids, sizes := g.Classes(tb, []int{0, 2})
	if len(sizes) != 8 {
		t.Fatalf("%d classes under forced collisions, want 8 (ids %v)", len(sizes), ids)
	}
	samePartition(t, tb, []int{0, 2}, ids, sizes)
}

// TestWithColumnBoundsMatchesSetCell pins the column writer to a SetCell
// per row: numbers where lo == hi (±0 either way round) or hi is nil,
// intervals, NaN bounds and nulls, over columns that held plain numbers,
// intervals or nulls before, compared cell by cell with the bits of every
// bound, and as CSV and fingerprint bytes.
func TestWithColumnBoundsMatchesSetCell(t *testing.T) {
	negZero := math.Copysign(0, -1)
	bounds := [][2]float64{{1, 1}, {negZero, 0}, {0, negZero}, {negZero, negZero}, {1, 2}, {-3, 0}, {math.NaN(), math.NaN()}, {5, 5}}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		tb := New(grouperSchema(t))
		n := 1 + rng.Intn(150)
		for i := 0; i < n; i++ {
			var a Value
			switch rng.Intn(3) {
			case 0:
				a = NullValue()
			case 1:
				a = Span(1, 4)
			default:
				a = Num(float64(i))
			}
			tb.MustAppendRow(a, Num(7), Str("t"))
		}
		lo, hi, nulls := make([]float64, n), make([]float64, n), make([]bool, n)
		want := tb.Clone()
		nullRate := rng.Intn(3) // 0: no nulls asked
		numbersOnly := trial%4 == 3
		for i := range lo {
			b := bounds[rng.Intn(len(bounds))]
			lo[i], hi[i] = b[0], b[1]
			cell := Span(b[0], b[1])
			if b[0] == b[1] || numbersOnly {
				cell = Num(b[0])
			}
			if nullRate > 0 && rng.Intn(4) < nullRate {
				nulls[i], cell = true, NullValue()
			}
			if err := want.SetCell(i, 0, cell); err != nil {
				t.Fatal(err)
			}
		}
		if nullRate == 0 {
			nulls = nil
		}
		if numbersOnly {
			hi = nil
		}
		before := tb.String()
		got, err := tb.WithColumnBounds(0, lo, hi, nulls)
		if err != nil {
			t.Fatal(err)
		}
		if tb.String() != before {
			t.Fatal("WithColumnBounds changed the table it views")
		}
		for i := 0; i < n; i++ {
			g, w := got.Cell(i, 0), want.Cell(i, 0)
			gl, gh, _ := g.Bounds()
			wl, wh, _ := w.Bounds()
			if g.Kind() != w.Kind() || math.Float64bits(gl) != math.Float64bits(wl) || math.Float64bits(gh) != math.Float64bits(wh) {
				t.Fatalf("trial %d row %d: %v, SetCell gives %v", trial, i, g, w)
			}
		}
		var gb, wb bytes.Buffer
		if err := WriteCSV(&gb, got); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&wb, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("trial %d: CSV bytes differ", trial)
		}
		gb.Reset()
		wb.Reset()
		if err := got.WriteFingerprint(&gb); err != nil {
			t.Fatal(err)
		}
		if err := want.WriteFingerprint(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("trial %d: fingerprints differ", trial)
		}
	}
}

// TestWithColumnBoundsErrors: a text column, a length mismatch and an
// inverted interval are refused.
func TestWithColumnBoundsErrors(t *testing.T) {
	tb := New(grouperSchema(t))
	tb.MustAppendRow(Num(1), Num(2), Str("x"))
	tb.MustAppendRow(Num(3), Num(4), Str("y"))
	if _, err := tb.WithColumnBounds(2, []float64{1, 2}, []float64{1, 2}, nil); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("text column: %v", err)
	}
	if _, err := tb.WithColumnBounds(0, []float64{1}, []float64{1}, nil); !errors.Is(err, ErrRowWidth) {
		t.Errorf("short bounds: %v", err)
	}
	if _, err := tb.WithColumnBounds(0, []float64{1, 2}, []float64{1, 2}, []bool{true}); !errors.Is(err, ErrRowWidth) {
		t.Errorf("short nulls: %v", err)
	}
	if _, err := tb.WithColumnBounds(0, []float64{1, 3}, []float64{1, 2}, nil); err == nil {
		t.Error("inverted interval accepted")
	}
}
