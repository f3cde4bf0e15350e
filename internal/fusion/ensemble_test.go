package fusion

import "testing"

func TestEnsemble(t *testing.T) {
	// Midpoint says 50 everywhere; rank spreads [0, 100]. Uniform ensemble
	// averages the two.
	ens := &Ensemble{Members: []Estimator{Midpoint{}, Rank{}}}
	est, err := estimateRows(ens, [][]float64{{1}, {2}, {3}}, Range{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{25, 50, 75} // (50+0)/2, (50+50)/2, (50+100)/2
	for i := range want {
		if est[i] != want[i] {
			t.Errorf("est[%d] = %g, want %g", i, est[i], want[i])
		}
	}
}

func TestEnsembleWeighted(t *testing.T) {
	ens := &Ensemble{Members: []Estimator{Midpoint{}, Rank{}}, Weights: []float64{1, 3}}
	est, err := estimateRows(ens, [][]float64{{1}, {3}}, Range{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	// (1·50 + 3·0)/4 = 12.5 and (1·50 + 3·100)/4 = 87.5.
	if est[0] != 12.5 || est[1] != 87.5 {
		t.Errorf("weighted = %v", est)
	}
}

func TestEnsembleErrors(t *testing.T) {
	if _, err := estimateRows(&Ensemble{}, [][]float64{{1}}, Range{0, 1}); err == nil {
		t.Error("empty ensemble accepted")
	}
	bad := &Ensemble{Members: []Estimator{Midpoint{}}, Weights: []float64{1, 2}}
	if _, err := estimateRows(bad, [][]float64{{1}}, Range{0, 1}); err == nil {
		t.Error("weight count mismatch accepted")
	}
	neg := &Ensemble{Members: []Estimator{Midpoint{}}, Weights: []float64{-1}}
	if _, err := estimateRows(neg, [][]float64{{1}}, Range{0, 1}); err == nil {
		t.Error("negative weight accepted")
	}
	zero := &Ensemble{Members: []Estimator{Midpoint{}}, Weights: []float64{0}}
	if _, err := estimateRows(zero, [][]float64{{1}}, Range{0, 1}); err == nil {
		t.Error("zero weights accepted")
	}
	failing := &Ensemble{Members: []Estimator{&KNN{K: 0}}}
	if _, err := estimateRows(failing, [][]float64{{1}}, Range{0, 1}); err == nil {
		t.Error("failing member accepted")
	}
	if (&Ensemble{}).Name() == "" {
		t.Error("empty name")
	}
}

func TestEnsembleWithFuzzy(t *testing.T) {
	ens := &Ensemble{Members: []Estimator{NewFuzzy(), Rank{}}}
	features := [][]float64{{1}, {5}, {9}}
	est, err := estimateRows(ens, features, Range{40000, 160000})
	if err != nil {
		t.Fatal(err)
	}
	if !(est[0] < est[1] && est[1] < est[2]) {
		t.Errorf("not monotone: %v", est)
	}
	for _, v := range est {
		if v < 40000 || v > 160000 {
			t.Errorf("estimate %g escapes range", v)
		}
	}
}
