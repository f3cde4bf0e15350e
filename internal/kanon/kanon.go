// Package kanon implements full-domain k-anonymity by generalization and
// suppression in the style of Samarati and Sweeney [2] — the technique that
// produces releases like the paper's Table III. Quasi-identifiers are
// rewritten through per-attribute generalization hierarchies
// (internal/hierarchy) and up to MaxSuppress outlier records may be
// suppressed entirely.
//
// The search walks the lattice of generalization level vectors in order of
// total height and returns a minimal vector whose generalization is
// k-anonymous, i.e. minimal distortion for the requested k.
package kanon

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
)

// Anonymizer holds the per-quasi-identifier hierarchies.
type Anonymizer struct {
	// Generalizers maps quasi-identifier column names to their hierarchy.
	// Every QI column of an input table must have an entry.
	Generalizers map[string]hierarchy.Generalizer
	// MaxSuppressFraction is the largest fraction of records that may be
	// suppressed to reach k-anonymity (Samarati's MaxSup). Zero forbids
	// suppression.
	MaxSuppressFraction float64
}

// New returns a generalization anonymizer over the given hierarchies with no
// suppression allowance.
func New(gens map[string]hierarchy.Generalizer) *Anonymizer {
	return &Anonymizer{Generalizers: gens}
}

// Name identifies the scheme in reports.
func (a *Anonymizer) Name() string { return "full-domain-generalization" }

// ErrUnsatisfiable is returned when no level vector achieves k-anonymity
// within the suppression allowance.
var ErrUnsatisfiable = errors.New("kanon: no generalization achieves k-anonymity")

// Result carries an anonymization plus the lattice node that produced it.
type Result struct {
	Table *dataset.Table
	// Levels is the generalization level per quasi-identifier, keyed by
	// column name.
	Levels map[string]int
	// Suppressed lists the row indices whose cells were fully suppressed.
	Suppressed []int
}

// Anonymize returns a minimal-height k-anonymous generalization of t.
func (a *Anonymizer) Anonymize(t *dataset.Table, k int) (*dataset.Table, error) {
	res, err := a.AnonymizeDetail(t, k)
	if err != nil {
		return nil, err
	}
	return res.Table, nil
}

// AnonymizeDetail is Anonymize with the chosen lattice node and suppression
// set exposed.
func (a *Anonymizer) AnonymizeDetail(t *dataset.Table, k int) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("kanon: k must be ≥ 1, got %d", k)
	}
	if t.NumRows() < k {
		return nil, fmt.Errorf("kanon: %d records cannot be %d-anonymous: %w", t.NumRows(), k, dataset.ErrTooFewRecords)
	}
	qiNames := t.Schema().NamesOf(dataset.QuasiIdentifier)
	if len(qiNames) == 0 {
		return nil, errors.New("kanon: table has no quasi-identifier columns")
	}
	gens := make([]hierarchy.Generalizer, len(qiNames))
	for i, n := range qiNames {
		g, ok := a.Generalizers[n]
		if !ok {
			return nil, fmt.Errorf("kanon: no hierarchy for quasi-identifier %q", n)
		}
		gens[i] = g
	}
	maxSup := int(a.MaxSuppressFraction * float64(t.NumRows()))

	// Enumerate level vectors by total height, lexicographic within a
	// height for determinism.
	maxima := make([]int, len(gens))
	total := 0
	for i, g := range gens {
		maxima[i] = g.MaxLevel()
		total += maxima[i]
	}
	for height := 0; height <= total; height++ {
		vectors := vectorsOfHeight(maxima, height)
		for _, vec := range vectors {
			res, ok, err := a.tryVector(t, qiNames, gens, vec, k, maxSup)
			if err != nil {
				return nil, err
			}
			if ok {
				return res, nil
			}
		}
	}
	return nil, fmt.Errorf("%w (k=%d, max suppression %d rows)", ErrUnsatisfiable, k, maxSup)
}

func (a *Anonymizer) tryVector(t *dataset.Table, qiNames []string, gens []hierarchy.Generalizer, vec []int, k, maxSup int) (*Result, bool, error) {
	gt, err := applyVector(t, qiNames, gens, vec)
	if err != nil {
		return nil, false, err
	}
	qis := gt.Schema().IndicesOf(dataset.QuasiIdentifier)
	groups := gt.GroupBy(qis)
	var small []int
	for _, g := range groups {
		if len(g) < k {
			small = append(small, g...)
		}
	}
	if len(small) > maxSup {
		return nil, false, nil
	}
	sort.Ints(small)
	for _, i := range small {
		for c := 0; c < gt.NumCols(); c++ {
			if gt.Schema().Column(c).Class == dataset.Identifier {
				continue // enterprise setting: identifiers stay
			}
			if err := gt.SetCell(i, c, dataset.NullValue()); err != nil {
				return nil, false, err
			}
		}
	}
	levels := make(map[string]int, len(qiNames))
	for i, n := range qiNames {
		levels[n] = vec[i]
	}
	return &Result{Table: gt, Levels: levels, Suppressed: small}, true, nil
}

func applyVector(t *dataset.Table, qiNames []string, gens []hierarchy.Generalizer, vec []int) (*dataset.Table, error) {
	out := t.Clone()
	for i, name := range qiNames {
		col := out.Schema().MustLookup(name)
		for r := 0; r < out.NumRows(); r++ {
			nv, err := gens[i].GeneralizeValue(out.Cell(r, col), vec[i])
			if err != nil {
				return nil, fmt.Errorf("kanon: column %q row %d: %w", name, r, err)
			}
			if err := out.SetCell(r, col, nv); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// vectorsOfHeight enumerates all level vectors bounded by maxima whose
// components sum to height, in lexicographic order.
func vectorsOfHeight(maxima []int, height int) [][]int {
	var out [][]int
	vec := make([]int, len(maxima))
	var rec func(i, remaining int)
	rec = func(i, remaining int) {
		if i == len(maxima) {
			if remaining == 0 {
				out = append(out, append([]int(nil), vec...))
			}
			return
		}
		hi := maxima[i]
		if hi > remaining {
			hi = remaining
		}
		for v := 0; v <= hi; v++ {
			vec[i] = v
			rec(i+1, remaining-v)
		}
		vec[i] = 0
	}
	rec(0, height)
	return out
}

// IsKAnonymous reports whether every quasi-identifier equivalence class of t
// has at least k members, ignoring fully suppressed rows (all-null QIs count
// as suppressed and are exempt, per the generalization+suppression model).
func IsKAnonymous(t *dataset.Table, k int) bool {
	qis := t.Schema().IndicesOf(dataset.QuasiIdentifier)
	if len(qis) == 0 {
		return false
	}
	for _, g := range t.GroupBy(qis) {
		if len(g) >= k {
			continue
		}
		// Exempt only groups whose QIs are entirely suppressed.
		allNull := true
		for _, c := range qis {
			if !t.Cell(g[0], c).IsNull() {
				allNull = false
				break
			}
		}
		if !allNull {
			return false
		}
	}
	return true
}
