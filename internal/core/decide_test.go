package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/microagg"
)

// TestDecideWithinCalibratesZeroThresholds: DecideWithin with tp = tu = 0
// decides exactly as it does at the calibrated thresholds, and reports them.
func TestDecideWithinCalibratesZeroThresholds(t *testing.T) {
	p, q := universityFixture(t, 40)
	probe, err := Sweep(p, microagg.New(), AttackConfig{Aux: q, SensitiveRange: salaryRange()}, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	tp, tu, err := CalibrateThresholds(probe)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecideWithin(slices.Clone(probe), tp, tu, metrics.DefaultHOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecideWithin(slices.Clone(probe), 0, 0, metrics.DefaultHOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got.Tp != tp || got.Tu != tu || want.Tp != tp || want.Tu != tu {
		t.Errorf("reported (Tp, Tu) = (%g, %g) and (%g, %g), want the calibrated (%g, %g)",
			got.Tp, got.Tu, want.Tp, want.Tu, tp, tu)
	}
	if got.OptimalK != want.OptimalK || math.Float64bits(got.Hmax) != math.Float64bits(want.Hmax) ||
		!slices.Equal(got.H, want.H) || !slices.Equal(got.Candidates, want.Candidates) {
		t.Errorf("zero thresholds: k=%d H=%v candidates %v; calibrated: k=%d H=%v candidates %v",
			got.OptimalK, got.H, got.Candidates, want.OptimalK, want.H, want.Candidates)
	}
	// Calibration needs three levels, so a shorter series cannot be decided
	// without thresholds.
	if _, err := DecideWithin(slices.Clone(probe[:2]), 0, 0, metrics.DefaultHOptions()); err == nil {
		t.Error("DecideWithin calibrated a 2-level series")
	}
	if _, err := Decide(slices.Clone(probe[:2]), Config{}); err == nil {
		t.Error("Decide calibrated a 2-level series")
	}
}

func TestCalibrateThresholdsErrors(t *testing.T) {
	if _, _, err := CalibrateThresholds(nil); err == nil {
		t.Error("empty probe accepted")
	}
	if _, _, err := CalibrateThresholds(make([]LevelResult, 2)); err == nil {
		t.Error("2-level probe accepted")
	}
}
