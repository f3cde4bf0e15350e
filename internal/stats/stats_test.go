package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaries(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Sum(xs); got != 40 {
		t.Errorf("Sum = %g", got)
	}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %g", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty summaries should be 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil || lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%g, %g, %v)", lo, hi, err)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("MinMax(nil) should error")
	}
}

func TestCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	yUp := []float64{2, 4, 6, 8}
	yDown := []float64{8, 6, 4, 2}
	if c, _ := Correlation(x, yUp); !almost(c, 1, 1e-12) {
		t.Errorf("corr up = %g", c)
	}
	if c, _ := Correlation(x, yDown); !almost(c, -1, 1e-12) {
		t.Errorf("corr down = %g", c)
	}
	if c, _ := Correlation(x, []float64{5, 5, 5, 5}); c != 0 {
		t.Errorf("corr const = %g", c)
	}
	if _, err := Correlation(x, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Correlation(nil, nil); err == nil {
		t.Error("empty accepted")
	}
}

func TestNormalizeAndClamp(t *testing.T) {
	got := Normalize([]float64{10, 20, 30})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almost(got[i], want[i], 1e-12) {
			t.Errorf("Normalize[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	for _, v := range Normalize([]float64{7, 7}) {
		if v != 0 {
			t.Error("constant Normalize should be zeros")
		}
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp wrong")
	}
}

// Property: normalized output is always within [0,1].
func TestNormalizeRangeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		for _, v := range Normalize(xs) {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitOLSRecoversPlane(t *testing.T) {
	// y = 3 + 2a − b, exact fit.
	x := [][]float64{{0, 0}, {1, 0}, {0, 1}, {2, 3}, {5, 1}, {4, 4}}
	y := make([]float64, len(x))
	for i, r := range x {
		y[i] = 3 + 2*r[0] - r[1]
	}
	m, err := FitOLS(x, y)
	if err != nil {
		t.Fatalf("FitOLS: %v", err)
	}
	if !almost(m.Intercept, 3, 1e-9) || !almost(m.Coef[0], 2, 1e-9) || !almost(m.Coef[1], -1, 1e-9) {
		t.Errorf("model = %+v", m)
	}
	if got := m.Predict([]float64{10, 10}); !almost(got, 3+20-10, 1e-9) {
		t.Errorf("Predict = %g", got)
	}
}

func TestFitOLSErrors(t *testing.T) {
	if _, err := FitOLS(nil, nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := FitOLS([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("row/target mismatch accepted")
	}
	if _, err := FitOLS([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := FitOLS([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("underdetermined system accepted")
	}
	// Constant predictor is collinear with the intercept.
	x := [][]float64{{1}, {1}, {1}}
	if _, err := FitOLS(x, []float64{1, 2, 3}); err == nil {
		t.Error("collinear design accepted")
	}
}

func TestPredictPanicsOnWidthMismatch(t *testing.T) {
	m := &LinearModel{Intercept: 0, Coef: []float64{1, 2}}
	defer func() {
		if recover() == nil {
			t.Fatal("Predict width mismatch did not panic")
		}
	}()
	m.Predict([]float64{1})
}

func TestSolveLinear(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x[0], 1, 1e-9) || !almost(x[1], 3, 1e-9) {
		t.Errorf("x = %v", x)
	}
	// Inputs must not be mutated.
	if a[0][0] != 2 || b[1] != 10 {
		t.Error("SolveLinear mutated inputs")
	}
	if _, err := SolveLinear([][]float64{{0, 0}, {0, 0}}, []float64{1, 1}); err == nil {
		t.Error("singular accepted")
	}
	if _, err := SolveLinear([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := SolveLinear([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("non-square accepted")
	}
}

// Property: SolveLinear solutions actually satisfy A·x = b for random
// well-conditioned diagonal-dominant systems.
func TestSolveLinearSatisfiesSystemProperty(t *testing.T) {
	f := func(seed uint8) bool {
		// Deterministic 3×3 diagonally dominant system derived from the seed.
		s := float64(seed%13) + 1
		a := [][]float64{
			{10 + s, 1, 2},
			{2, 12 - s/2, 1},
			{1, 3, 9 + s},
		}
		b := []float64{s, 2 * s, -s}
		x, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		for i := range a {
			var got float64
			for j := range a[i] {
				got += a[i][j] * x[j]
			}
			if !almost(got, b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
