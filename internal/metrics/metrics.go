// Package metrics implements the paper's measurement layer: the
// mean-squared-trace dissimilarity of Definition 1, the Bayardo–Agrawal
// discernibility metric C_DM and the derived utility U = 1/C_DM (Section
// 6.C), the adversary's information gain G (Section 6.B), and the weighted
// protection+utility objective H (Section 4).
package metrics

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
)

// ErrShape is returned when two datasets do not represent the same set of
// individuals and attributes, which Definition 1 requires.
var ErrShape = errors.New("metrics: datasets have different shapes")

// Dissimilarity computes Definition 1 of the paper over two row-major
// numeric matrices representing the same individuals and attributes:
//
//	D1 ∘ D2 = (1/m) · Tr((D1 − D2)ᵀ (D1 − D2))
//
// which equals the mean over records of the squared Euclidean row distance.
func Dissimilarity(d1, d2 [][]float64) (float64, error) {
	m := len(d1)
	if m != len(d2) {
		return 0, fmt.Errorf("%w: %d vs %d rows", ErrShape, m, len(d2))
	}
	if m == 0 {
		return 0, fmt.Errorf("%w: empty datasets", ErrShape)
	}
	var total float64
	for i := range d1 {
		if len(d1[i]) != len(d2[i]) {
			return 0, fmt.Errorf("%w: row %d has %d vs %d attributes", ErrShape, i, len(d1[i]), len(d2[i]))
		}
		for j := range d1[i] {
			d := d1[i][j] - d2[i][j]
			total += d * d
		}
	}
	return total / float64(m), nil
}

// TableDissimilarity applies Definition 1 to two tables over the named
// columns, reading generalized cells at their interval midpoints and
// suppressed cells as def. Both tables must have the rows in the same
// individual order (the enterprise release keeps identifiers, so callers can
// align by name first; see internal/linkage).
//
// It extracts each side as column vectors and accumulates in the same
// row-major order as Dissimilarity, so the result is bit-identical to the
// matrix form without materializing row-major matrices.
func TableDissimilarity(t1, t2 *dataset.Table, cols []string, def float64) (float64, error) {
	if t1.NumRows() != t2.NumRows() {
		return 0, fmt.Errorf("%w: %d vs %d rows", ErrShape, t1.NumRows(), t2.NumRows())
	}
	idx1, err := columnIndices(t1, cols)
	if err != nil {
		return 0, err
	}
	idx2, err := columnIndices(t2, cols)
	if err != nil {
		return 0, err
	}
	v1 := make([][]float64, len(cols))
	v2 := make([][]float64, len(cols))
	for j := range cols {
		v1[j] = t1.ColumnFloats(idx1[j], def)
		v2[j] = t2.ColumnFloats(idx2[j], def)
	}
	return ColumnDissimilarity(v1, v2, t1.NumRows())
}

// ColumnDissimilarity is Definition 1 over column vectors: d1 and d2 hold one
// vector of length m per compared attribute. The accumulation order matches
// Dissimilarity's row-major walk exactly.
func ColumnDissimilarity(d1, d2 [][]float64, m int) (float64, error) {
	if len(d1) != len(d2) {
		return 0, fmt.Errorf("%w: %d vs %d columns", ErrShape, len(d1), len(d2))
	}
	if m == 0 {
		return 0, fmt.Errorf("%w: empty datasets", ErrShape)
	}
	for j := range d1 {
		if len(d1[j]) != m || len(d2[j]) != m {
			return 0, fmt.Errorf("%w: column %d has %d vs %d values for %d rows", ErrShape, j, len(d1[j]), len(d2[j]), m)
		}
	}
	// The row-major walk (record outer, attribute inner) is the accumulation
	// order Definition 1 is pinned to; the specializations below hoist the
	// column slices out of the inner loop and re-slice to m so the compiler
	// drops the bounds checks, while adding the very same terms in the very
	// same order as the generic walk.
	var total float64
	switch len(d1) {
	case 1:
		a0, b0 := d1[0][:m], d2[0][:m]
		for i := 0; i < m; i++ {
			d := a0[i] - b0[i]
			total += d * d
		}
	case 2:
		a0, b0 := d1[0][:m], d2[0][:m]
		a1, b1 := d1[1][:m], d2[1][:m]
		for i := 0; i < m; i++ {
			d := a0[i] - b0[i]
			total += d * d
			d = a1[i] - b1[i]
			total += d * d
		}
	case 3:
		a0, b0 := d1[0][:m], d2[0][:m]
		a1, b1 := d1[1][:m], d2[1][:m]
		a2, b2 := d1[2][:m], d2[2][:m]
		for i := 0; i < m; i++ {
			d := a0[i] - b0[i]
			total += d * d
			d = a1[i] - b1[i]
			total += d * d
			d = a2[i] - b2[i]
			total += d * d
		}
	case 4:
		a0, b0 := d1[0][:m], d2[0][:m]
		a1, b1 := d1[1][:m], d2[1][:m]
		a2, b2 := d1[2][:m], d2[2][:m]
		a3, b3 := d1[3][:m], d2[3][:m]
		for i := 0; i < m; i++ {
			d := a0[i] - b0[i]
			total += d * d
			d = a1[i] - b1[i]
			total += d * d
			d = a2[i] - b2[i]
			total += d * d
			d = a3[i] - b3[i]
			total += d * d
		}
	default:
		for i := 0; i < m; i++ {
			for j := range d1 {
				d := d1[j][i] - d2[j][i]
				total += d * d
			}
		}
	}
	return total / float64(m), nil
}

func columnIndices(t *dataset.Table, cols []string) ([]int, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, err := t.Schema().Lookup(c)
		if err != nil {
			return nil, fmt.Errorf("metrics: %w", err)
		}
		idx[i] = j
	}
	return idx, nil
}

// Discernibility computes the Bayardo–Agrawal discernibility metric:
//
//	C_DM(g, k) = Σ_{|E| ≥ k} |E|² + Σ_{|E| < k} |D|·|E|
//
// where E ranges over the equivalence classes induced on the table by the
// quasi-identifier columns. Classes smaller than k (suppressed or
// non-conforming rows) pay the severe |D|·|E| penalty.
//
// The classes are computed with a dataset.Grouper rather than Table.GroupBy;
// the class *order* differs (first occurrence vs lexicographic key), but
// every C_DM term is an integer below 2⁵³ — |E|² ≤ n² and |D|·|E| ≤ n², with
// the total bounded by 2n² — so the float64 sum is exact and order-
// independent: the result is bit-identical to the GroupBy formulation
// (TestDiscernibilityMatchesGroupBy pins this).
func Discernibility(t *dataset.Table, k int) (float64, error) {
	return DiscernibilityWith(t, k, nil)
}

// DiscernibilityWith is Discernibility with caller-owned grouping scratch: a
// warm Grouper makes the per-level utility computation of a sweep
// allocation-free. A nil Grouper uses a temporary one.
func DiscernibilityWith(t *dataset.Table, k int, g *dataset.Grouper) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("metrics: discernibility needs k ≥ 1, got %d", k)
	}
	qis := t.Schema().IndicesOf(dataset.QuasiIdentifier)
	if len(qis) == 0 {
		return 0, errors.New("metrics: table has no quasi-identifier columns")
	}
	if g == nil {
		g = new(dataset.Grouper)
	}
	_, sizes := g.Classes(t, qis)
	n := float64(t.NumRows())
	k32 := int32(k)
	var cdm float64
	for _, s := range sizes {
		size := float64(s)
		if s >= k32 {
			cdm += size * size
		} else {
			cdm += n * size
		}
	}
	return cdm, nil
}

// Utility computes U_k = 1 / C_DM(k) as in Section 6.C. An empty table has
// zero utility.
func Utility(t *dataset.Table, k int) (float64, error) {
	return UtilityWith(t, k, nil)
}

// UtilityWith is Utility with caller-owned grouping scratch (see
// DiscernibilityWith).
func UtilityWith(t *dataset.Table, k int, g *dataset.Grouper) (float64, error) {
	if t.NumRows() == 0 {
		return 0, nil
	}
	cdm, err := DiscernibilityWith(t, k, g)
	if err != nil {
		return 0, err
	}
	return 1 / cdm, nil
}

// InformationGain is the paper's G = (P ∘ P') − (P ∘ P̂) (Section 6.B): how
// much closer the adversary's post-fusion estimate is to the truth than the
// pre-fusion release alone.
func InformationGain(beforeFusion, afterFusion float64) float64 {
	return beforeFusion - afterFusion
}
