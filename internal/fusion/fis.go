package fusion

import (
	"errors"
	"fmt"

	"repro/internal/fuzzy"
	"repro/internal/parallel"
)

// FIS adapts a hand-authored fuzzy inference system (typically loaded with
// fuzzy.ParseFIS) into an Estimator. Unlike Fuzzy, which synthesizes
// variables and rules from the data, FIS runs the system exactly as
// authored — the workflow of the paper's adversary, who wrote the Figure 2
// system by hand in the Matlab toolbox. It is the one path for hand-written
// rule bases.
type FIS struct {
	// System is the complete authored system.
	System *fuzzy.System
	// FeatureNames maps feature columns to the system's input variables,
	// in feature order. Every registered input must appear.
	FeatureNames []string
}

// Name implements Estimator.
func (f *FIS) Name() string { return "fis" }

// EstimateBatch implements Estimator. The system is compiled per call — FIS
// runs the system exactly as currently authored, so rules added between
// calls must stay visible — and the rows evaluate chunk-parallel through
// evaluator clones. Records on which no rule fires (the batch NaN sentinel)
// fall back to the range midpoint, matching the Fuzzy estimator's
// convention.
func (f *FIS) EstimateBatch(m Matrix, out Range, b *parallel.Budget, _ *Arena, est []float64) error {
	if f.System == nil {
		return errors.New("fusion: FIS estimator has no system")
	}
	if !out.valid() {
		return fmt.Errorf("fusion: empty range")
	}
	if m.Rows == 0 {
		return errors.New("fusion: FIS estimator needs at least one record")
	}
	d := m.Stride
	if len(f.FeatureNames) != d {
		return fmt.Errorf("fusion: %d feature names for %d features", len(f.FeatureNames), d)
	}
	declared := make(map[string]bool, d)
	for _, fn := range f.FeatureNames {
		declared[fn] = true
	}
	for _, in := range f.System.Inputs() {
		if !declared[in] {
			return fmt.Errorf("fusion: system input %q has no feature column", in)
		}
	}
	proto, err := fuzzy.NewEvaluator(f.System)
	if err != nil {
		return err
	}
	if err := proto.BindInputs(f.FeatureNames); err != nil {
		return err
	}
	return (&compiledFuzzy{proto: proto}).estimate(m, out, b, est)
}
