package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDissimilarityDefinition(t *testing.T) {
	// Hand-computed: rows (1,2) vs (3,2) and (0,0) vs (0,4):
	// ((2²+0²)+(0²+4²)) / 2 = 10.
	d1 := [][]float64{{1, 2}, {0, 0}}
	d2 := [][]float64{{3, 2}, {0, 4}}
	got, err := Dissimilarity(d1, d2)
	if err != nil || got != 10 {
		t.Errorf("Dissimilarity = %g, %v; want 10", got, err)
	}
}

func TestDissimilarityIdentity(t *testing.T) {
	d := [][]float64{{1, 2, 3}, {4, 5, 6}}
	got, err := Dissimilarity(d, d)
	if err != nil || got != 0 {
		t.Errorf("self dissimilarity = %g, %v", got, err)
	}
}

func TestDissimilarityShapeErrors(t *testing.T) {
	if _, err := Dissimilarity(nil, nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := Dissimilarity([][]float64{{1}}, [][]float64{{1}, {2}}); err == nil {
		t.Error("row mismatch accepted")
	}
	if _, err := Dissimilarity([][]float64{{1}}, [][]float64{{1, 2}}); err == nil {
		t.Error("column mismatch accepted")
	}
}

// Properties of Definition 1: symmetry, non-negativity, identity of
// indiscernibles on the diagonal.
func TestDissimilarityProperties(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		m1 := [][]float64{{a, b}}
		m2 := [][]float64{{c, d}}
		d12, e1 := Dissimilarity(m1, m2)
		d21, e2 := Dissimilarity(m2, m1)
		d11, e3 := Dissimilarity(m1, m1)
		if e1 != nil || e2 != nil || e3 != nil {
			return false
		}
		return d12 == d21 && d12 >= 0 && d11 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func miniTable(t *testing.T, ages []dataset.Value) *dataset.Table {
	t.Helper()
	tb := dataset.New(dataset.MustSchema(
		dataset.Column{Name: "Name", Class: dataset.Identifier, Kind: dataset.Text},
		dataset.Column{Name: "Age", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "Income", Class: dataset.Sensitive, Kind: dataset.Number},
	))
	for i, a := range ages {
		tb.MustAppendRow(dataset.Str(string(rune('A'+i))), a, dataset.Num(float64(1000*(i+1))))
	}
	return tb
}

func TestTableDissimilarity(t *testing.T) {
	t1 := miniTable(t, []dataset.Value{dataset.Num(20), dataset.Num(40)})
	t2 := miniTable(t, []dataset.Value{dataset.Span(10, 30), dataset.Num(42)})
	// Age reads 20 vs 20 (midpoint) and 40 vs 42 → (0 + 4)/2 = 2.
	got, err := TableDissimilarity(t1, t2, []string{"Age"}, 0)
	if err != nil || got != 2 {
		t.Errorf("TableDissimilarity = %g, %v; want 2", got, err)
	}
	// Unknown column errors.
	if _, err := TableDissimilarity(t1, t2, []string{"Nope"}, 0); err == nil {
		t.Error("unknown column accepted")
	}
	// Row mismatch errors.
	t3 := miniTable(t, []dataset.Value{dataset.Num(1)})
	if _, err := TableDissimilarity(t1, t3, []string{"Age"}, 0); err == nil {
		t.Error("row mismatch accepted")
	}
}

func TestTableDissimilaritySuppressedUsesDefault(t *testing.T) {
	t1 := miniTable(t, []dataset.Value{dataset.Num(20)})
	t2 := miniTable(t, []dataset.Value{dataset.NullValue()})
	got, err := TableDissimilarity(t1, t2, []string{"Age"}, 50)
	if err != nil || got != 900 { // (20-50)²
		t.Errorf("suppressed dissimilarity = %g, %v; want 900", got, err)
	}
}

func groupedTable(t *testing.T, sizes []int) *dataset.Table {
	if t != nil {
		t.Helper()
	}
	tb := dataset.New(dataset.MustSchema(
		dataset.Column{Name: "QI", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
	))
	for g, size := range sizes {
		for i := 0; i < size; i++ {
			tb.MustAppendRow(dataset.Num(float64(g)))
		}
	}
	return tb
}

func TestDiscernibility(t *testing.T) {
	// Groups of 3 and 2, k=2: 3² + 2² = 13.
	tb := groupedTable(t, []int{3, 2})
	got, err := Discernibility(tb, 2)
	if err != nil || got != 13 {
		t.Errorf("C_DM = %g, %v; want 13", got, err)
	}
	// k=3: group of 2 is non-conforming → 3² + |D|·2 = 9 + 10 = 19.
	got, err = Discernibility(tb, 3)
	if err != nil || got != 19 {
		t.Errorf("C_DM(k=3) = %g, %v; want 19", got, err)
	}
	if _, err := Discernibility(tb, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestDiscernibilityNeedsQIs(t *testing.T) {
	tb := dataset.New(dataset.MustSchema(
		dataset.Column{Name: "S", Class: dataset.Sensitive, Kind: dataset.Number},
	))
	tb.MustAppendRow(dataset.Num(1))
	if _, err := Discernibility(tb, 2); err == nil {
		t.Error("no-QI table accepted")
	}
}

func TestUtility(t *testing.T) {
	tb := groupedTable(t, []int{3, 2})
	u, err := Utility(tb, 2)
	if err != nil || !almost(u, 1.0/13, 1e-15) {
		t.Errorf("U = %g, %v; want 1/13", u, err)
	}
	empty := groupedTable(t, nil)
	u, err = Utility(empty, 2)
	if err != nil || u != 0 {
		t.Errorf("empty utility = %g, %v", u, err)
	}
}

func TestUtilityDecreasesWithK(t *testing.T) {
	// One big group of 12: C_DM grows from k≤12 (144) to k=13 (12·12=144)…
	// use two groups so the k-threshold actually bites.
	tb := groupedTable(t, []int{6, 6})
	var prev = math.Inf(1)
	for k := 2; k <= 7; k++ {
		u, err := Utility(tb, k)
		if err != nil {
			t.Fatal(err)
		}
		if u > prev {
			t.Fatalf("utility increased at k=%d: %g > %g", k, u, prev)
		}
		prev = u
	}
	// k=7 makes both groups non-conforming: C_DM = 12·6 + 12·6 = 144 vs 72.
	u6, _ := Utility(tb, 6)
	u7, _ := Utility(tb, 7)
	if !almost(u6, 1.0/72, 1e-15) || !almost(u7, 1.0/144, 1e-15) {
		t.Errorf("u6 = %g, u7 = %g", u6, u7)
	}
}

func TestInformationGain(t *testing.T) {
	if g := InformationGain(5.3e8, 3.2e8); !almost(g, 2.1e8, 1) {
		t.Errorf("G = %g", g)
	}
	if g := InformationGain(1, 2); g != -1 {
		t.Errorf("negative gain = %g", g)
	}
}

// TestColumnDissimilaritySpecializations pins every specialized column-count
// path to the generic matrix form bit for bit — the specializations must add
// the same terms in the same order.
func TestColumnDissimilaritySpecializations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for width := 1; width <= 6; width++ {
		const m = 257
		cols1 := make([][]float64, width)
		cols2 := make([][]float64, width)
		rows1 := make([][]float64, m)
		rows2 := make([][]float64, m)
		for i := range rows1 {
			rows1[i] = make([]float64, width)
			rows2[i] = make([]float64, width)
		}
		for j := 0; j < width; j++ {
			cols1[j] = make([]float64, m)
			cols2[j] = make([]float64, m)
			for i := 0; i < m; i++ {
				cols1[j][i] = rng.NormFloat64() * 1000
				cols2[j][i] = cols1[j][i] + rng.NormFloat64()
				rows1[i][j], rows2[i][j] = cols1[j][i], cols2[j][i]
			}
		}
		want, err := Dissimilarity(rows1, rows2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ColumnDissimilarity(cols1, cols2, m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("width %d: column form %v != matrix form %v", width, got, want)
		}
	}
}
