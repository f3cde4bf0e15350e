// Package microagg implements microaggregation-based k-anonymization — the
// Basic_Anonymization scheme the paper's experiments use (Domingo-Ferrer's
// practical data-oriented microaggregation [9], MDAV).
//
// MDAV clusters records into groups of size in [k, 2k−1] that are
// homogeneous in the quasi-identifier space and replaces every record's
// quasi-identifiers by its group centroid. Identifier columns are retained
// verbatim (the enterprise setting of the paper) and sensitive columns are
// left untouched for the caller to suppress.
package microagg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/parallel"
)

// Options configures MDAV.
type Options struct {
	// Standardize z-scores each quasi-identifier before computing distances
	// so attributes with large ranges do not dominate. Default true via
	// DefaultOptions.
	Standardize bool
	// CentroidAsInterval emits each aggregated cell as the group's
	// [min, max] interval rather than the centroid number. The paper's
	// Table III shows intervals; its experiments use centroids (numeric
	// estimates feed the fuzzy system either way, via interval midpoints).
	CentroidAsInterval bool
}

// DefaultOptions returns the configuration used by the reproduction's
// experiments: standardized distances, centroid cells.
func DefaultOptions() Options { return Options{Standardize: true} }

// Anonymizer runs MDAV at a given k. It implements the core package's
// Anonymizer contract structurally.
type Anonymizer struct {
	Opts Options
}

// New returns an MDAV anonymizer with default options.
func New() *Anonymizer { return &Anonymizer{Opts: DefaultOptions()} }

// Name identifies the scheme in reports.
func (a *Anonymizer) Name() string { return "mdav-microaggregation" }

// ErrTooFewRecords is returned when the table has fewer than k records. It
// wraps dataset.ErrTooFewRecords, the typed sentinel core.EndsSweep checks.
var ErrTooFewRecords = fmt.Errorf("microagg: fewer records than k: %w", dataset.ErrTooFewRecords)

// Anonymize returns a k-anonymous copy of t: quasi-identifier cells replaced
// by their MDAV group centroid (or interval). k must be ≥ 2 and ≤ the number
// of rows.
func (a *Anonymizer) Anonymize(t *dataset.Table, k int) (*dataset.Table, error) {
	return a.Prepare(t, nil)(k, nil)
}

// AnonymizeParallel is Anonymize. The budget is unused, since the MDAV
// kernel runs inline; the method keeps MDAV a core.ParallelAnonymizer for
// callers that assert one.
func (a *Anonymizer) AnonymizeParallel(t *dataset.Table, k int, _ *parallel.Budget) (*dataset.Table, error) {
	return a.Anonymize(t, k)
}

// Prepare does the work on t that does not depend on k once — validation,
// the quasi-identifier points, standardized if the options say so, the k-d
// tree and the radial bounds — and returns the function that anonymizes t
// at any level k from it, equal to Anonymize(t, k). Both budgets are
// unused. The function is safe for concurrent use: each call copies the
// tree's live state. It reports k's errors first, then t's, in Assign's
// order.
func (a *Anonymizer) Prepare(t *dataset.Table, _ *parallel.Budget) func(k int, b *parallel.Budget) (*dataset.Table, error) {
	opts := a.Opts
	p := prepare(t, opts.Standardize)
	return func(k int, _ *parallel.Budget) (*dataset.Table, error) {
		kn, err := p.level(k)
		if err != nil {
			return nil, err
		}
		return Aggregate(t, kn.assign(k), opts.CentroidAsInterval)
	}
}

// Assign runs MDAV and returns the clusters as row-index groups, each of
// size in [k, 2k−1]. It fails when a quasi-identifier coordinate, after
// standardization if that is on, is NaN or ±Inf: distances to it have no
// order.
func (a *Anonymizer) Assign(t *dataset.Table, k int) ([][]int, error) {
	kn, err := newTableKernel(t, k, a.Opts.Standardize)
	if err != nil {
		return nil, err
	}
	return kn.assign(k), nil
}

// newTableKernel checks t and k for MDAV and returns a kernel for one run at
// k over t's quasi-identifier points, z-scored when std is set.
func newTableKernel(t *dataset.Table, k int, std bool) (*kernel, error) {
	return prepare(t, std).level(k)
}

// prepared is a table with MDAV's k-invariant work done: the kernel every
// level clones, or the table's validation error.
type prepared struct {
	n   int
	kn  *kernel
	err error
}

// prepare validates t for MDAV and builds the kernel over its
// quasi-identifier points, z-scored when std is set. A table that fails
// validation is not read further.
func prepare(t *dataset.Table, std bool) prepared {
	n := t.NumRows()
	qis := t.Schema().IndicesOf(dataset.QuasiIdentifier)
	if len(qis) == 0 {
		return prepared{n: n, err: errors.New("microagg: table has no quasi-identifier columns")}
	}
	for _, c := range qis {
		if t.Schema().Column(c).Kind != dataset.Number {
			return prepared{n: n, err: fmt.Errorf("microagg: quasi-identifier %q is not numeric; MDAV is a quantitative method", t.Schema().Column(c).Name)}
		}
	}
	d := len(qis)
	pts := t.MatrixFlat(qis, 0)
	if std {
		standardizeFlat(pts, n, d)
	}
	if err := checkFinite(t, qis, pts); err != nil {
		return prepared{n: n, err: err}
	}
	return prepared{n: n, kn: newKernel(pts, n, d)}
}

// level checks k, then the table, and returns a clone of the prepared
// kernel for one run at k.
func (p prepared) level(k int) (*kernel, error) {
	if k < 2 {
		return nil, fmt.Errorf("microagg: k must be ≥ 2, got %d", k)
	}
	if p.n < k {
		return nil, fmt.Errorf("%w: %d < %d", ErrTooFewRecords, p.n, k)
	}
	if p.err != nil {
		return nil, p.err
	}
	return p.kn.clone(k), nil
}

// checkFinite fails on the first NaN or ±Inf in pts, t's columns cols laid
// out row-major, naming its column.
func checkFinite(t *dataset.Table, cols []int, pts []float64) error {
	for i, v := range pts {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("microagg: quasi-identifier %q has a non-finite coordinate (NaN or ±Inf)", t.Schema().Column(cols[i%len(cols)]).Name)
		}
	}
	return nil
}

// AssignParallel is Assign; the budget is unused.
func (a *Anonymizer) AssignParallel(t *dataset.Table, k int, _ *parallel.Budget) ([][]int, error) {
	return a.Assign(t, k)
}

// Aggregate replaces each record's quasi-identifiers with its group's
// centroid (or covering interval). Groups must partition the row indices.
// Each quasi-identifier column is written once, from per-row bounds.
func Aggregate(t *dataset.Table, groups [][]int, asInterval bool) (*dataset.Table, error) {
	n := t.NumRows()
	seen := make([]bool, n)
	for _, g := range groups {
		if len(g) == 0 {
			return nil, errors.New("microagg: empty group")
		}
		for _, i := range g {
			if i < 0 || i >= n {
				return nil, fmt.Errorf("microagg: group references row %d outside table", i)
			}
			if seen[i] {
				return nil, fmt.Errorf("microagg: row %d in two groups", i)
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("microagg: row %d not covered by any group", i)
		}
	}
	out := t
	for _, c := range t.Schema().IndicesOf(dataset.QuasiIdentifier) {
		if t.Schema().Column(c).Kind != dataset.Number {
			// No cell has a numeric reading, so every group's cell is null.
			out = out.WithSuppressed(c)
			continue
		}
		vals, present := t.FloatColumn(c)
		lo, hi, nulls := make([]float64, n), []float64(nil), []bool(nil)
		if asInterval {
			hi = make([]float64, n)
		}
		for _, g := range groups {
			l, h, null := math.Inf(1), math.Inf(-1), false
			if asInterval {
				for _, i := range g {
					if present[i] {
						l, h = math.Min(l, vals[i]), math.Max(h, vals[i])
					}
				}
				null = math.IsInf(l, 1)
			} else {
				var sum float64
				var cnt int
				for _, i := range g {
					if present[i] {
						sum += vals[i]
						cnt++
					}
				}
				l, null = sum/float64(cnt), cnt == 0
			}
			if null && nulls == nil {
				nulls = make([]bool, n)
			}
			for _, i := range g {
				lo[i] = l
				if asInterval {
					hi[i] = h
				}
				if null {
					nulls[i] = true
				}
			}
		}
		var err error
		if out, err = out.WithColumnBounds(c, lo, hi, nulls); err != nil {
			return nil, err
		}
	}
	if out == t {
		out = t.Clone()
	}
	return out, nil
}

// SSE returns the within-group sum of squared distances to group centroids in
// the (unstandardized) quasi-identifier space — the information loss measure
// microaggregation minimizes.
func SSE(t *dataset.Table, groups [][]int) float64 {
	qis := t.Schema().IndicesOf(dataset.QuasiIdentifier)
	d := len(qis)
	pts := t.MatrixFlat(qis, 0)
	c := make([]float64, d)
	var sse float64
	for _, g := range groups {
		for j := range c {
			c[j] = 0
		}
		for _, i := range g {
			row := pts[i*d : i*d+d]
			for j, v := range row {
				c[j] += v
			}
		}
		for j := range c {
			c[j] /= float64(len(g))
		}
		for _, i := range g {
			row := pts[i*d : i*d+d]
			var s float64
			for j, v := range row {
				dv := v - c[j]
				s += dv * dv
			}
			sse += s
		}
	}
	return sse
}
