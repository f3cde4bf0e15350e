// Package fusion implements the paper's information fusion system F: given
// the anonymized release P' and the web auxiliary data Q, it produces P̂, the
// adversary's estimate of the private data P (Section 4, Figure 2).
//
// The primary estimator is the fuzzy inference system of Figure 2, built
// automatically from the data's observed ranges with the paper's
// "simplistic set of knowledge rules ... assigned uniform weights"
// (Section 6.A). Comparison estimators — midpoint (no fusion), rank,
// ordinary least squares and k-nearest-neighbours — support the ablation
// benches.
package fusion

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Range is the publicly known span of the sensitive attribute (the paper's
// "income range for all the customers is [$40000 - $100000]").
type Range struct{ Lo, Hi float64 }

// Mid returns the range midpoint — the no-fusion estimate.
func (r Range) Mid() float64 { return (r.Lo + r.Hi) / 2 }

// valid reports whether the range is non-empty.
func (r Range) valid() bool { return r.Hi > r.Lo }

// Estimator maps the adversary's feature matrix to sensitive estimates
// within a range.
type Estimator interface {
	// Name identifies the estimator in reports and benches.
	Name() string
	// EstimateBatch writes one estimate per matrix row into est, each inside
	// [out.Lo, out.Hi], drawing scratch from the arena and spreading row
	// chunks over the budget's spare workers (both may be nil). The
	// determinism contract of parallel.For applies: results never depend on
	// the number of workers.
	EstimateBatch(m Matrix, out Range, b *parallel.Budget, a *Arena, est []float64) error
}

// BatchEstimator is the former name of Estimator. It remains only because
// the fredbench module asserts it; the next change to that module can drop
// it.
type BatchEstimator = Estimator

// ErrNoFeatures is returned when the release and auxiliary tables yield no
// numeric features.
var ErrNoFeatures = errors.New("fusion: no numeric features available")

// AuxFeatures is the precomputed aux-side half of the adversary's feature
// matrix: one mean-imputed column vector per numeric quasi-identifier of the
// auxiliary table Q. The columns are invariant across anonymization levels,
// so a sweep prepares them once (core.SweepContext) and every level only
// assembles the release-side half.
type AuxFeatures struct {
	// rows is Q's row count, or -1 for the no-aux adversary.
	rows  int
	cols  [][]float64
	names []string
	// err reports the first NaN or ±Inf in Q's feature columns;
	// FeaturesMatrixWith returns it.
	err error
}

// PrepareAux extracts and imputes the aux-side feature columns. A nil aux
// models the adversary without web access and yields an empty feature set.
// A NaN or ±Inf in one of Q's feature columns is kept, and every feature
// matrix assembled from the result fails with it.
func PrepareAux(aux *dataset.Table) *AuxFeatures {
	af := &AuxFeatures{rows: -1}
	if aux == nil {
		return af
	}
	af.rows = aux.NumRows()
	present := make([]bool, af.rows)
	for _, i := range aux.Schema().IndicesOf(dataset.QuasiIdentifier) {
		if aux.Schema().Column(i).Kind != dataset.Number {
			continue
		}
		name := "aux." + aux.Schema().Column(i).Name
		col, err := imputedColumnInto(aux, i, name, nil, present)
		if err != nil {
			af.err = err
			return af
		}
		af.cols = append(af.cols, col)
		af.names = append(af.names, name)
	}
	return af
}

// imputedColumnInto reads a column's numeric values (interval midpoints)
// into an arena buffer, with missing cells replaced by the mean of the
// observed ones, accumulated in row order. A present NaN or ±Inf fails
// naming the feature and its row: the fuzzy system's domains and rule
// firings are meaningless over it. present is caller scratch of length
// NumRows.
func imputedColumnInto(t *dataset.Table, idx int, name string, a *Arena, present []bool) ([]float64, error) {
	vals := a.Floats(t.NumRows())
	t.FloatColumnInto(idx, vals, present)
	var sum float64
	var seen int
	for r, ok := range present {
		if ok {
			if !(math.Abs(vals[r]) <= math.MaxFloat64) {
				return nil, fmt.Errorf("fusion: feature %q has a non-finite value (NaN or ±Inf) in row %d", name, r)
			}
			sum += vals[r]
			seen++
		}
	}
	mean := 0.0
	if seen > 0 {
		mean = sum / float64(seen)
	}
	for r, ok := range present {
		if !ok {
			vals[r] = mean
		}
	}
	return vals, nil
}

// FeaturesMatrixWith assembles the adversary's input matrix: the numeric
// quasi-identifiers of the release (generalized cells read at interval
// midpoints), then the prepared aux-side columns, row-aligned. Missing cells
// (suppressed, unlinked web attributes) are imputed with the column mean of
// the observed values; a NaN or ±Inf feature value, in the release or in Q,
// fails naming the feature and its row. Release columns are imputed into
// arena buffers and the transpose into the flat matrix runs chunk-parallel
// under the budget; both may be nil. Names parallels the feature columns.
func FeaturesMatrixWith(release *dataset.Table, aux *AuxFeatures, b *parallel.Budget, a *Arena) (Matrix, error) {
	if aux.rows >= 0 && release.NumRows() != aux.rows {
		return Matrix{}, fmt.Errorf("fusion: release has %d rows, aux has %d; align them first (web.Gather aligns by roster order)", release.NumRows(), aux.rows)
	}
	if aux.err != nil {
		return Matrix{}, aux.err
	}
	qis := release.Schema().IndicesOf(dataset.QuasiIdentifier)
	var cols [][]float64
	var names []string
	var present []bool
	for _, i := range qis {
		if release.Schema().Column(i).Kind != dataset.Number {
			continue
		}
		if present == nil {
			present = a.Bools(release.NumRows())
		}
		name := release.Schema().Column(i).Name
		col, err := imputedColumnInto(release, i, name, a, present)
		if err != nil {
			return Matrix{}, err
		}
		cols = append(cols, col)
		names = append(names, name)
	}
	cols = append(cols, aux.cols...)
	names = append(names, aux.names...)
	if len(cols) == 0 {
		return Matrix{}, ErrNoFeatures
	}
	n := release.NumRows()
	d := len(cols)
	flat := a.Floats(n * d)
	b.For(n, transposeGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := flat[r*d : (r+1)*d]
			for j := range cols {
				row[j] = cols[j][r]
			}
		}
	})
	return Matrix{Flat: flat, Rows: n, Stride: d, Names: names}, nil
}

// transposeGrain sizes the chunks of the column-to-row transpose; the work
// per row is a handful of strided loads, so chunks stay large.
const transposeGrain = 8192

// sensitiveColumn validates the release's sensitive column for fusion: there
// must be exactly one and it must be numeric.
func sensitiveColumn(release *dataset.Table) (int, error) {
	sens := release.Schema().IndicesOf(dataset.Sensitive)
	if len(sens) != 1 {
		return 0, fmt.Errorf("fusion: release needs exactly one sensitive column, found %d", len(sens))
	}
	if release.Schema().Column(sens[0]).Kind != dataset.Number {
		return 0, fmt.Errorf("fusion: sensitive column %q is not numeric", release.Schema().Column(sens[0]).Name)
	}
	return sens[0], nil
}

// FuseWith runs the full F(P', Q) step with the aux-side feature columns
// already prepared (PrepareAux): assemble the feature matrix, estimate the
// sensitive attribute, and return P̂ — the release with its (single,
// numeric) sensitive column holding the estimates and every other column
// shared. Scratch comes from the arena and row chunks spread over the
// budget; both may be nil.
func FuseWith(release *dataset.Table, aux *AuxFeatures, est Estimator, out Range, b *parallel.Budget, a *Arena) (*dataset.Table, error) {
	if est == nil {
		return nil, errors.New("fusion: nil estimator")
	}
	if !out.valid() {
		return nil, fmt.Errorf("fusion: empty sensitive range [%g, %g]", out.Lo, out.Hi)
	}
	sens, err := sensitiveColumn(release)
	if err != nil {
		return nil, err
	}
	m, err := FeaturesMatrixWith(release, aux, b, a)
	if err != nil {
		return nil, err
	}
	vals := a.Floats(m.Rows)
	if err := est.EstimateBatch(m, out, b, a, vals); err != nil {
		return nil, err
	}
	for i, v := range vals {
		vals[i] = stats.Clamp(v, out.Lo, out.Hi)
	}
	// WithColumnFloats copies vals, so the arena slice can be reused freely.
	return release.WithColumnFloats(sens, vals)
}

// CanFuse reports whether a release can enter the fusion step for the given
// range: the checks FuseWith performs before any feature work (valid range,
// exactly one numeric sensitive column, at least one numeric feature when
// the adversary has no aux table). It is the allocation-free validation
// core.SweepContext runs per level in place of building the midpoint
// baseline table.
func CanFuse(release *dataset.Table, out Range) error {
	if !out.valid() {
		return fmt.Errorf("fusion: empty sensitive range [%g, %g]", out.Lo, out.Hi)
	}
	if _, err := sensitiveColumn(release); err != nil {
		return err
	}
	// A release-only feature matrix fails only when the release contributes
	// no numeric quasi-identifiers; preserve that contract without the build.
	for _, i := range release.Schema().IndicesOf(dataset.QuasiIdentifier) {
		if release.Schema().Column(i).Kind == dataset.Number {
			return nil
		}
	}
	return ErrNoFeatures
}
