package fusion

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fuzzy"
	"repro/internal/parallel"
)

// featureFixture builds a release/aux pair with nulls and intervals so both
// imputation paths get exercised.
func featureFixture(t *testing.T) (*dataset.Table, *dataset.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	var relVals, auxVals []dataset.Value
	for i := 0; i < 300; i++ {
		switch rng.Intn(5) {
		case 0:
			relVals = append(relVals, dataset.NullValue())
		case 1:
			lo := float64(rng.Intn(50))
			relVals = append(relVals, dataset.Span(lo, lo+float64(rng.Intn(10))))
		default:
			relVals = append(relVals, dataset.Num(float64(rng.Intn(100))))
		}
		if rng.Intn(7) == 0 {
			auxVals = append(auxVals, dataset.NullValue())
		} else {
			auxVals = append(auxVals, dataset.Num(float64(rng.Intn(1000))))
		}
	}
	return releaseTable(t, relVals), auxTable(t, auxVals)
}

// randMatrix builds a random flat feature matrix plus its row views.
func randMatrix(rng *rand.Rand, n, d int) (Matrix, [][]float64) {
	flat := make([]float64, n*d)
	for i := range flat {
		flat[i] = math.Round(rng.Float64()*100) / 10 // coarse grid → distance ties
	}
	m := Matrix{Flat: flat, Rows: n, Stride: d}
	return m, rowsOf(m)
}

func sameBits(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d estimates, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: row %d: batch %v != reference %v", tag, i, got[i], want[i])
		}
	}
}

// batchBudgets covers the worker axis: inline, and budgets of 2 and 8
// spare tokens.
func batchBudgets() []*parallel.Budget {
	return []*parallel.Budget{nil, parallel.NewBudget(2), parallel.NewBudget(8)}
}

// TestEstimateBatchMatchesEstimate pins every built-in estimator to its
// row-at-a-time reference, bit for bit, across worker budgets.
func TestEstimateBatchMatchesEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	out := Range{Lo: 40, Hi: 160}
	const n, d = 700, 3
	m, rows := randMatrix(rng, n, d)

	calibN := 60
	_, calibRows := randMatrix(rng, calibN, d)
	targets := make([]float64, calibN)
	for i := range targets {
		targets[i] = out.Lo + rng.Float64()*(out.Hi-out.Lo)
	}

	ests := []Estimator{
		Midpoint{},
		Rank{},
		&Regression{CalibFeatures: calibRows, CalibTargets: targets},
		&KNN{K: 5, CalibFeatures: calibRows, CalibTargets: targets},
		&Fuzzy{},
		&Fuzzy{Opts: FuzzyOptions{Domains: []Range{{0, 10}, {0, 10}, {0, 10}}}},
		&Ensemble{Members: []Estimator{
			Midpoint{},
			Rank{},
			&KNN{K: 3, CalibFeatures: calibRows, CalibTargets: targets},
		}, Weights: []float64{1, 2, 3}},
	}
	arena := &Arena{}
	for _, est := range ests {
		want, err := referenceEstimate(est, rows, out)
		if err != nil {
			t.Fatalf("%s: reference: %v", est.Name(), err)
		}
		for bi, b := range batchBudgets() {
			arena.Reset()
			got := arena.Floats(n)
			if err := est.EstimateBatch(m, out, b, arena, got); err != nil {
				t.Fatalf("%s budget %d: EstimateBatch: %v", est.Name(), bi, err)
			}
			sameBits(t, est.Name(), got, want)
		}
	}
}

// TestFISBatchMatchesEstimate pins the hand-authored system adapter to
// System.Evaluate, including no-rule-fired rows.
func TestFISBatchMatchesEstimate(t *testing.T) {
	outVar, err := fuzzy.NewVariable("out", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := outVar.UniformTerms([]string{"low", "high"}); err != nil {
		t.Fatal(err)
	}
	sys, err := fuzzy.NewSystem(outVar)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"f1", "f2"} {
		v, err := fuzzy.NewVariable(name, 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.ThreeTerms("low", "med", "high"); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddInput(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []string{
		// Sparse on purpose: mid-range rows fire nothing.
		"IF f1 IS low AND f2 IS low THEN out IS low",
		"IF f1 IS high AND f2 IS high THEN out IS high",
	} {
		if err := sys.AddRuleText(r); err != nil {
			t.Fatal(err)
		}
	}
	f := &FIS{System: sys, FeatureNames: []string{"f1", "f2"}}
	rng := rand.New(rand.NewSource(5))
	const n = 400
	m, rows := randMatrix(rng, n, 2)
	out := Range{Lo: 0, Hi: 100}
	want, err := referenceEstimate(f, rows, out)
	if err != nil {
		t.Fatal(err)
	}
	arena := &Arena{}
	for _, b := range batchBudgets() {
		arena.Reset()
		got := arena.Floats(n)
		if err := f.EstimateBatch(m, out, b, arena, got); err != nil {
			t.Fatal(err)
		}
		sameBits(t, f.Name(), got, want)
	}
}

// TestFeaturesMatrixMatchesFeatures pins the flat matrix to the reference
// feature rows: same columns, same imputation, same bits.
func TestFeaturesMatrixMatchesFeatures(t *testing.T) {
	release, aux := featureFixture(t)
	want, wantNames, err := referenceFeatures(release, aux)
	if err != nil {
		t.Fatal(err)
	}
	arena := &Arena{}
	for _, b := range batchBudgets() {
		arena.Reset()
		m, err := FeaturesMatrixWith(release, PrepareAux(aux), b, arena)
		if err != nil {
			t.Fatal(err)
		}
		if m.Rows != len(want) || m.Stride != len(wantNames) {
			t.Fatalf("matrix %dx%d, want %dx%d", m.Rows, m.Stride, len(want), len(wantNames))
		}
		for j, name := range wantNames {
			if m.Names[j] != name {
				t.Fatalf("feature %d named %q, want %q", j, m.Names[j], name)
			}
		}
		for r := range want {
			for j := range want[r] {
				if math.Float64bits(m.Flat[r*m.Stride+j]) != math.Float64bits(want[r][j]) {
					t.Fatalf("cell (%d,%d): %v != %v", r, j, m.Flat[r*m.Stride+j], want[r][j])
				}
			}
		}
	}
}

// TestFuseWithBatchMatchesFuseWith: the full fusion step must produce the
// reference table at every budget, and reusing the arena across levels must
// not corrupt results.
func TestFuseWithBatchMatchesFuseWith(t *testing.T) {
	release, aux := featureFixture(t)
	out := Range{Lo: 40000, Hi: 160000}
	af := PrepareAux(aux)
	arena := &Arena{}
	for _, est := range []Estimator{&Fuzzy{}, Rank{}, Midpoint{}} {
		want, err := referenceFuseWith(release, aux, est, out)
		if err != nil {
			t.Fatal(err)
		}
		for bi, b := range batchBudgets() {
			for round := 0; round < 3; round++ { // arena reuse across "levels"
				arena.Reset()
				got, err := FuseWith(release, af, est, out, b, arena)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s budget %d round %d: fused table differs from the reference", est.Name(), bi, round)
				}
			}
		}
	}
}

// TestArenaReuse: once warm, a fuse step on the arena path must not grow the
// arena again (the per-level steady state the sweep relies on).
func TestArenaReuse(t *testing.T) {
	arena := &Arena{}
	for round := 0; round < 4; round++ {
		arena.Reset()
		a := arena.Floats(100)
		bb := arena.Bools(50)
		c := arena.Ints(70)
		if len(a) != 100 || len(bb) != 50 || len(c) != 70 {
			t.Fatal("arena returned wrong lengths")
		}
		a[99] = 1
		bb[49] = true
		c[69] = 7
	}
	arena.Reset()
	allocs := testing.AllocsPerRun(20, func() {
		arena.Reset()
		_ = arena.Floats(100)
		_ = arena.Bools(50)
		_ = arena.Ints(70)
	})
	if allocs > 0 {
		t.Fatalf("warm arena allocates %g times per run, want 0", allocs)
	}
	// Slices are zeroed on every allocation.
	arena.Reset()
	if f := arena.Floats(100); f[99] != 0 {
		t.Fatal("arena floats not zeroed")
	}
	if bb := arena.Bools(50); bb[49] {
		t.Fatal("arena bools not zeroed")
	}
	if c := arena.Ints(70); c[69] != 0 {
		t.Fatal("arena ints not zeroed")
	}
}

// TestKNNTieBreak: with exactly tied distances straddling the K boundary,
// the (distance, index) order must pick the lower calibration indices, as
// the reference does.
func TestKNNTieBreak(t *testing.T) {
	calib := [][]float64{{1, 0}, {0, 1}, {-1, 0}, {0, -1}} // all at distance 1 from origin
	targets := []float64{10, 20, 40, 80}
	k := &KNN{K: 2, CalibFeatures: calib, CalibTargets: targets}
	query := [][]float64{{0, 0}}
	want, err := referenceEstimate(k, query, Range{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if want[0] != 15 { // neighbours 0 and 1 under (d, idx) order
		t.Fatalf("reference knn picked %v, want 15", want[0])
	}
	got := make([]float64, 1)
	if err := k.EstimateBatch(Matrix{Flat: []float64{0, 0}, Rows: 1, Stride: 2}, Range{0, 100}, nil, nil, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Fatalf("batch knn %v != reference %v", got[0], want[0])
	}
}

// BenchmarkFuzzyEstimateBatch measures the paper's estimator two ways: with
// fixed domains over a mid-size cohort, inline, and as the service runs it,
// with observed domains (so every call compiles its own system, as every
// sweep level does) over the university cohort's feature-matrix shape,
// 2·10⁴ rows × 5 features, under a GOMAXPROCS budget.
func BenchmarkFuzzyEstimateBatch(b *testing.B) {
	fixed := make([]Range, 4)
	for j := range fixed {
		fixed[j] = Range{0, 10}
	}
	for _, bc := range []struct {
		name   string
		n, d   int
		f      *Fuzzy
		out    Range
		budget *parallel.Budget
	}{
		{"fixed-4096x4", 4096, 4, &Fuzzy{Opts: FuzzyOptions{Domains: fixed}}, Range{Lo: 40, Hi: 160}, nil},
		{"observed-20000x5", 20000, 5, NewFuzzy(), Range{Lo: 40000, Hi: 160000}, parallel.NewBudget(runtime.GOMAXPROCS(0))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, _ := randMatrix(rand.New(rand.NewSource(9)), bc.n, bc.d)
			arena := &Arena{}
			est := arena.Floats(bc.n)
			if err := bc.f.EstimateBatch(m, bc.out, bc.budget, arena, est); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.f.EstimateBatch(m, bc.out, bc.budget, arena, est); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
