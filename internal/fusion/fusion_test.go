package fusion

import (
	"math"
	"testing"

	"repro/internal/dataset"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// estimateRows runs an estimator over feature rows (all of one width) with
// no budget or arena.
func estimateRows(est Estimator, rows [][]float64, out Range) ([]float64, error) {
	m := Matrix{Rows: len(rows)}
	if len(rows) > 0 {
		m.Stride = len(rows[0])
	}
	for _, row := range rows {
		m.Flat = append(m.Flat, row...)
	}
	res := make([]float64, m.Rows)
	if err := est.EstimateBatch(m, out, nil, nil, res); err != nil {
		return nil, err
	}
	return res, nil
}

// releaseTable builds a release with one numeric QI ("Valuation"), one text
// QI that must be ignored, and a suppressed sensitive column.
func releaseTable(t *testing.T, vals []dataset.Value) *dataset.Table {
	t.Helper()
	tb := dataset.New(dataset.MustSchema(
		dataset.Column{Name: "Name", Class: dataset.Identifier, Kind: dataset.Text},
		dataset.Column{Name: "Valuation", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "Notes", Class: dataset.QuasiIdentifier, Kind: dataset.Text},
		dataset.Column{Name: "Income", Class: dataset.Sensitive, Kind: dataset.Number},
	))
	for i, v := range vals {
		tb.MustAppendRow(dataset.Str(string(rune('a'+i))), v, dataset.Str("n"), dataset.NullValue())
	}
	return tb
}

func auxTable(t *testing.T, props []dataset.Value) *dataset.Table {
	t.Helper()
	tb := dataset.New(dataset.MustSchema(
		dataset.Column{Name: "Name", Class: dataset.Identifier, Kind: dataset.Text},
		dataset.Column{Name: "Property", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
	))
	for i, p := range props {
		tb.MustAppendRow(dataset.Str(string(rune('a'+i))), p)
	}
	return tb
}

func TestFeaturesCombinesReleaseAndAux(t *testing.T) {
	rel := releaseTable(t, []dataset.Value{dataset.Num(2), dataset.Span(4, 8)})
	aux := auxTable(t, []dataset.Value{dataset.Num(100), dataset.Num(300)})
	m, err := FeaturesMatrixWith(rel, PrepareAux(aux), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if names := m.Names; len(names) != 2 || names[0] != "Valuation" || names[1] != "aux.Property" {
		t.Fatalf("names = %v", names)
	}
	// Interval reads at midpoint: Span(4,8) → 6.
	want := [][]float64{{2, 100}, {6, 300}}
	for i := range want {
		for j := range want[i] {
			if got := m.Row(i)[j]; got != want[i][j] {
				t.Errorf("f[%d][%d] = %g, want %g", i, j, got, want[i][j])
			}
		}
	}
}

func TestFeaturesImputesMissing(t *testing.T) {
	rel := releaseTable(t, []dataset.Value{dataset.Num(2), dataset.Num(4), dataset.Num(6)})
	aux := auxTable(t, []dataset.Value{dataset.Num(100), dataset.NullValue(), dataset.Num(300)})
	m, err := FeaturesMatrixWith(rel, PrepareAux(aux), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Missing property imputes to mean of observed = 200.
	if got := m.Row(1)[1]; got != 200 {
		t.Errorf("imputed = %g, want 200", got)
	}
}

func TestFeaturesErrors(t *testing.T) {
	rel := releaseTable(t, []dataset.Value{dataset.Num(1)})
	aux := auxTable(t, []dataset.Value{dataset.Num(1), dataset.Num(2)})
	if _, err := FeaturesMatrixWith(rel, PrepareAux(aux), nil, nil); err == nil {
		t.Error("misaligned tables accepted")
	}
	// Table with no numeric QIs at all.
	bare := dataset.New(dataset.MustSchema(
		dataset.Column{Name: "Name", Class: dataset.Identifier, Kind: dataset.Text},
		dataset.Column{Name: "Income", Class: dataset.Sensitive, Kind: dataset.Number},
	))
	bare.MustAppendRow(dataset.Str("a"), dataset.NullValue())
	if _, err := FeaturesMatrixWith(bare, PrepareAux(nil), nil, nil); err == nil {
		t.Error("featureless table accepted")
	}
}

func TestMidpoint(t *testing.T) {
	est, err := estimateRows(Midpoint{}, [][]float64{{1}, {2}}, Range{40000, 100000})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range est {
		if v != 70000 {
			t.Errorf("midpoint = %g", v)
		}
	}
	if _, err := estimateRows(Midpoint{}, nil, Range{5, 5}); err == nil {
		t.Error("empty range accepted")
	}
}

func TestRankSpreadsRange(t *testing.T) {
	est, err := estimateRows(Rank{}, [][]float64{{10}, {30}, {20}}, Range{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if est[0] != 0 || est[1] != 100 || est[2] != 50 {
		t.Errorf("rank estimates = %v", est)
	}
	// Single record: midpoint.
	est, err = estimateRows(Rank{}, [][]float64{{10}}, Range{0, 100})
	if err != nil || est[0] != 50 {
		t.Errorf("singleton = %v, %v", est, err)
	}
	if _, err := estimateRows(Rank{}, nil, Range{0, 1}); err == nil {
		t.Error("empty accepted")
	}
}

func TestRegressionEstimator(t *testing.T) {
	// Calibration: y = 10·x. Prediction clamps into the range.
	reg := &Regression{
		CalibFeatures: [][]float64{{1}, {2}, {3}, {4}},
		CalibTargets:  []float64{10, 20, 30, 40},
	}
	est, err := estimateRows(reg, [][]float64{{2.5}, {100}}, Range{0, 50})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(est[0], 25, 1e-9) {
		t.Errorf("est[0] = %g", est[0])
	}
	if est[1] != 50 {
		t.Errorf("est[1] = %g, want clamped 50", est[1])
	}
	// Unfittable calibration.
	bad := &Regression{CalibFeatures: [][]float64{{1}}, CalibTargets: []float64{1}}
	if _, err := estimateRows(bad, [][]float64{{1}}, Range{0, 1}); err == nil {
		t.Error("underdetermined calibration accepted")
	}
}

func TestKNNEstimator(t *testing.T) {
	knn := &KNN{
		K:             2,
		CalibFeatures: [][]float64{{0}, {1}, {10}, {11}},
		CalibTargets:  []float64{100, 200, 1000, 1100},
	}
	est, err := estimateRows(knn, [][]float64{{0.4}, {10.6}}, Range{0, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if est[0] != 150 || est[1] != 1050 {
		t.Errorf("knn = %v", est)
	}
	// K larger than the calibration set degrades to the global mean.
	knn.K = 99
	est, err = estimateRows(knn, [][]float64{{5}}, Range{0, 2000})
	if err != nil || est[0] != 600 {
		t.Errorf("big-K = %v, %v", est, err)
	}
	if _, err := estimateRows(&KNN{K: 0}, [][]float64{{1}}, Range{0, 1}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := estimateRows(&KNN{K: 1}, [][]float64{{1}}, Range{0, 1}); err == nil {
		t.Error("empty calibration accepted")
	}
	mis := &KNN{K: 1, CalibFeatures: [][]float64{{1, 2}}, CalibTargets: []float64{1}}
	if _, err := estimateRows(mis, [][]float64{{1}}, Range{0, 1}); err == nil {
		t.Error("feature width mismatch accepted")
	}
}

func TestFuseProducesPhat(t *testing.T) {
	rel := releaseTable(t, []dataset.Value{dataset.Num(1), dataset.Num(5), dataset.Num(9)})
	aux := auxTable(t, []dataset.Value{dataset.Num(500), dataset.Num(2000), dataset.Num(5500)})
	phat, err := FuseWith(rel, PrepareAux(aux), NewFuzzy(), Range{40000, 160000}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inc := phat.Schema().MustLookup("Income")
	var prev float64
	for i := 0; i < phat.NumRows(); i++ {
		v := phat.Cell(i, inc).MustFloat()
		if v < 40000 || v > 160000 {
			t.Errorf("estimate %g outside range", v)
		}
		if i > 0 && v <= prev {
			t.Errorf("estimates not increasing with monotone inputs: %g after %g", v, prev)
		}
		prev = v
	}
	// Original release untouched.
	if !rel.Cell(0, rel.Schema().MustLookup("Income")).IsNull() {
		t.Error("FuseWith mutated its input")
	}
}

func TestFuseValidation(t *testing.T) {
	rel := releaseTable(t, []dataset.Value{dataset.Num(1), dataset.Num(2)})
	if _, err := FuseWith(rel, PrepareAux(nil), nil, Range{0, 1}, nil, nil); err == nil {
		t.Error("nil estimator accepted")
	}
	if _, err := FuseWith(rel, PrepareAux(nil), Midpoint{}, Range{7, 7}, nil, nil); err == nil {
		t.Error("empty range accepted")
	}
	// Two sensitive columns.
	two := dataset.New(dataset.MustSchema(
		dataset.Column{Name: "Q", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "S1", Class: dataset.Sensitive, Kind: dataset.Number},
		dataset.Column{Name: "S2", Class: dataset.Sensitive, Kind: dataset.Number},
	))
	two.MustAppendRow(dataset.Num(1), dataset.Num(1), dataset.Num(1))
	if _, err := FuseWith(two, PrepareAux(nil), Midpoint{}, Range{0, 1}, nil, nil); err == nil {
		t.Error("two sensitive columns accepted")
	}
	// Text sensitive column.
	txt := dataset.New(dataset.MustSchema(
		dataset.Column{Name: "Q", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "S", Class: dataset.Sensitive, Kind: dataset.Text},
	))
	txt.MustAppendRow(dataset.Num(1), dataset.Str("x"))
	if _, err := FuseWith(txt, PrepareAux(nil), Midpoint{}, Range{0, 1}, nil, nil); err == nil {
		t.Error("text sensitive accepted")
	}
}

func TestFuseWithoutAux(t *testing.T) {
	// Fusion degrades gracefully to release-only estimation (Q = nil).
	rel := releaseTable(t, []dataset.Value{dataset.Num(1), dataset.Num(9)})
	phat, err := FuseWith(rel, PrepareAux(nil), NewFuzzy(), Range{0, 100}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inc := phat.Schema().MustLookup("Income")
	lo := phat.Cell(0, inc).MustFloat()
	hi := phat.Cell(1, inc).MustFloat()
	if lo >= hi {
		t.Errorf("lo %g, hi %g", lo, hi)
	}
}

func TestEstimatorNames(t *testing.T) {
	ests := []Estimator{Midpoint{}, Rank{}, &Regression{}, &KNN{}, NewFuzzy()}
	seen := map[string]bool{}
	for _, e := range ests {
		n := e.Name()
		if n == "" || seen[n] {
			t.Errorf("bad or duplicate name %q", n)
		}
		seen[n] = true
	}
}
