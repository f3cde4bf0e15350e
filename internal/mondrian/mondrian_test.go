package mondrian

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

func numTable(t testing.TB, rows [][]float64) *dataset.Table {
	if t != nil {
		t.Helper()
	}
	cols := []dataset.Column{{Name: "Name", Class: dataset.Identifier, Kind: dataset.Text}}
	for j := 0; j < len(rows[0]); j++ {
		cols = append(cols, dataset.Column{Name: string(rune('A' + j)), Class: dataset.QuasiIdentifier, Kind: dataset.Number})
	}
	tb := dataset.New(dataset.MustSchema(cols...))
	for i, r := range rows {
		cells := []dataset.Value{dataset.Str(string(rune('a'+i%26)) + string(rune('0'+i/26)))}
		for _, v := range r {
			cells = append(cells, dataset.Num(v))
		}
		tb.MustAppendRow(cells...)
	}
	return tb
}

func TestPartitionSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := make([][]float64, 37)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 100, rng.Float64() * 10}
	}
	tb := numTable(t, rows)
	for _, k := range []int{2, 3, 5} {
		parts, err := New().Partition(tb, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		var covered int
		for _, p := range parts {
			if len(p) < k {
				t.Errorf("k=%d: partition of size %d", k, len(p))
			}
			covered += len(p)
		}
		if covered != len(rows) {
			t.Errorf("k=%d: covered %d of %d", k, covered, len(rows))
		}
	}
}

func TestAnonymizeIsKAnonymous(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, 50)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 10, float64(i % 7)}
	}
	tb := numTable(t, rows)
	for _, k := range []int{2, 4, 6} {
		anon, err := New().Anonymize(tb, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		qis := anon.Schema().IndicesOf(dataset.QuasiIdentifier)
		for _, g := range anon.GroupBy(qis) {
			if len(g) < k {
				t.Errorf("k=%d: class of size %d", k, len(g))
			}
		}
	}
}

func TestAnonymizeCellsCoverOriginals(t *testing.T) {
	rows := [][]float64{{1, 5}, {2, 6}, {3, 7}, {8, 1}, {9, 2}, {10, 3}}
	tb := numTable(t, rows)
	anon, err := New().Anonymize(tb, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		for j, x := range r {
			if !anon.Cell(i, j+1).Contains(x) {
				t.Errorf("cell (%d,%d)=%v does not cover %g", i, j+1, anon.Cell(i, j+1), x)
			}
		}
	}
	// Identifiers untouched.
	for i := 0; i < tb.NumRows(); i++ {
		if !anon.Cell(i, 0).Equal(tb.Cell(i, 0)) {
			t.Error("identifier modified")
		}
	}
}

func TestStrictKeepsTiesTogether(t *testing.T) {
	// Eight records, one dimension, two tie groups of 4. Strict Mondrian may
	// cut only between the 4s and 5s.
	rows := [][]float64{{4}, {4}, {4}, {4}, {5}, {5}, {5}, {5}}
	tb := numTable(t, rows)
	parts, err := New().Partition(tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %d, want 2", len(parts))
	}
	for _, p := range parts {
		v0, _ := tb.Cell(p[0], 1).Float()
		for _, i := range p {
			v, _ := tb.Cell(i, 1).Float()
			if v != v0 {
				t.Errorf("strict split separated tie group: %v", p)
			}
		}
	}
}

func TestRelaxedSplitsTies(t *testing.T) {
	// All-equal values: strict cannot split, relaxed can.
	rows := [][]float64{{7}, {7}, {7}, {7}}
	tb := numTable(t, rows)
	strict, err := New().Partition(tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) != 1 {
		t.Errorf("strict parts = %d, want 1", len(strict))
	}
	relaxed, err := (&Anonymizer{Relaxed: true}).Partition(tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(relaxed) != 2 {
		t.Errorf("relaxed parts = %d, want 2", len(relaxed))
	}
}

func TestErrors(t *testing.T) {
	tb := numTable(t, [][]float64{{1}, {2}, {3}})
	if _, err := New().Partition(tb, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := New().Partition(tb, 4); err == nil {
		t.Error("k>n accepted")
	}
	cat := dataset.New(dataset.MustSchema(
		dataset.Column{Name: "Q", Class: dataset.QuasiIdentifier, Kind: dataset.Text}))
	cat.MustAppendRow(dataset.Str("x"))
	cat.MustAppendRow(dataset.Str("y"))
	if _, err := New().Partition(cat, 2); err == nil {
		t.Error("categorical QI accepted")
	}
	noQI := dataset.New(dataset.MustSchema(
		dataset.Column{Name: "S", Class: dataset.Sensitive, Kind: dataset.Number}))
	noQI.MustAppendRow(dataset.Num(1))
	noQI.MustAppendRow(dataset.Num(2))
	if _, err := New().Partition(noQI, 2); err == nil {
		t.Error("no-QI accepted")
	}
}

// TestPartitionRejectsNonFinite: a NaN or ±Inf in a present
// quasi-identifier cell is an error naming the column, while a suppressed
// cell, which reads as 0, is not.
func TestPartitionRejectsNonFinite(t *testing.T) {
	for _, c := range []struct {
		name string
		bad  float64
	}{
		{"nan", math.NaN()},
		{"inf", math.Inf(1)},
		{"minus-inf", math.Inf(-1)},
	} {
		rows := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
		rows[2][1] = c.bad
		for _, a := range []*Anonymizer{New(), {Relaxed: true}} {
			_, err := a.Anonymize(numTable(t, rows), 2)
			if err == nil || !strings.Contains(err.Error(), `quasi-identifier "B"`) || !strings.Contains(err.Error(), "non-finite") {
				t.Errorf("%s relaxed=%v: err = %v, want a non-finite error naming column B", c.name, a.Relaxed, err)
			}
		}
	}
	tb := numTable(t, [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	if err := tb.SetCell(2, 2, dataset.NullValue()); err != nil {
		t.Fatal(err)
	}
	if _, err := New().Anonymize(tb, 2); err != nil {
		t.Errorf("suppressed cell: %v", err)
	}
}

func TestName(t *testing.T) {
	if New().Name() == "" {
		t.Error("empty name")
	}
}

// Property: partitions always have size ≥ k and cover all rows exactly once,
// for both strict and relaxed variants.
func TestPartitionInvariantProperty(t *testing.T) {
	f := func(seed int64, kRaw, nRaw, relaxed uint8) bool {
		k := int(kRaw)%4 + 2  // 2..5
		n := int(nRaw)%50 + k // k..k+49
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{rng.Float64() * 50, float64(rng.Intn(4))}
		}
		tb := numTable(nil, rows)
		a := &Anonymizer{Relaxed: relaxed%2 == 1}
		parts, err := a.Partition(tb, k)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for _, p := range parts {
			if len(p) < k {
				return false
			}
			for _, i := range p {
				if seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Mondrian partitions never produce fewer groups when k shrinks
// (more granularity is always allowed at smaller k on the same data).
func TestMonotoneGranularityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rows := make([][]float64, 60)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	tb := numTable(t, rows)
	prev := -1
	for k := 8; k >= 2; k-- {
		parts, err := New().Partition(tb, k)
		if err != nil {
			t.Fatal(err)
		}
		if prev != -1 && len(parts) < prev {
			t.Errorf("k=%d has %d parts, fewer than k=%d's %d", k, len(parts), k+1, prev)
		}
		prev = len(parts)
	}
}
