package fusion

import (
	"testing"
	"testing/quick"
)

func TestFuzzyMonotone(t *testing.T) {
	features := [][]float64{{1, 500}, {5, 2500}, {9, 5500}}
	est, err := estimateRows(NewFuzzy(), features, Range{40000, 160000})
	if err != nil {
		t.Fatal(err)
	}
	if !(est[0] < est[1] && est[1] < est[2]) {
		t.Errorf("not monotone: %v", est)
	}
}

func TestFuzzyBeatsMidpointOnCorrelatedData(t *testing.T) {
	// Truth: y proportional to x. Fuzzy fusion must reduce squared error vs
	// the midpoint estimate — the paper's central information-gain claim.
	var features [][]float64
	var truth []float64
	for i := 0; i < 30; i++ {
		x := float64(i) / 29 // 0..1
		features = append(features, []float64{x * 10})
		truth = append(truth, 40000+x*120000)
	}
	r := Range{40000, 160000}
	fz, err := estimateRows(NewFuzzy(), features, r)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := estimateRows(Midpoint{}, features, r)
	if err != nil {
		t.Fatal(err)
	}
	sq := func(est []float64) float64 {
		var s float64
		for i := range est {
			d := est[i] - truth[i]
			s += d * d
		}
		return s
	}
	if sq(fz) >= sq(mid) {
		t.Errorf("fuzzy SSE %g not better than midpoint %g", sq(fz), sq(mid))
	}
}

func TestFuzzyDegenerateFeature(t *testing.T) {
	// Fully generalized release: every record identical. The estimator must
	// not fail; estimates collapse to a single central value.
	features := [][]float64{{5}, {5}, {5}}
	est, err := estimateRows(NewFuzzy(), features, Range{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if est[0] != est[1] || est[1] != est[2] {
		t.Errorf("estimates differ on identical inputs: %v", est)
	}
	if est[0] < 0 || est[0] > 100 {
		t.Errorf("estimate %g escapes range", est[0])
	}
}

func TestFuzzyErrors(t *testing.T) {
	if _, err := estimateRows(NewFuzzy(), nil, Range{0, 1}); err == nil {
		t.Error("no records accepted")
	}
	if _, err := estimateRows(NewFuzzy(), [][]float64{{}}, Range{0, 1}); err == nil {
		t.Error("zero-width features accepted")
	}
	if _, err := estimateRows(NewFuzzy(), [][]float64{{1}}, Range{3, 3}); err == nil {
		t.Error("empty range accepted")
	}
	f := &Fuzzy{Opts: FuzzyOptions{Domains: []Range{{0, 10}, {0, 10}}}}
	if _, err := estimateRows(f, [][]float64{{1}}, Range{0, 1}); err == nil || err.Error() != "fusion: 2 domains for 1 features" {
		t.Errorf("domain/width mismatch: %v", err)
	}
	f = &Fuzzy{Opts: FuzzyOptions{Domains: []Range{{0, 10}, {5, 5}}}}
	if _, err := estimateRows(f, [][]float64{{1, 2}}, Range{0, 1}); err == nil || err.Error() != "fusion: empty domain [5, 5] for feature 1" {
		t.Errorf("empty domain: %v", err)
	}
}

// Property: fuzzy estimates always stay inside the sensitive range.
func TestFuzzyRangeProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		features := make([][]float64, len(raw))
		for i, b := range raw {
			features[i] = []float64{float64(b)}
		}
		est, err := estimateRows(NewFuzzy(), features, Range{40000, 160000})
		if err != nil {
			return false
		}
		for _, v := range est {
			if v < 40000 || v > 160000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
