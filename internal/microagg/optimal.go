package microagg

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/dataset"
)

// OptimalUnivariate computes the optimal k-partition of a single numeric
// attribute by the Hansen–Mukherjee shortest-path dynamic program: groups
// are contiguous runs of the sorted values with sizes in [k, 2k−1], chosen
// to minimize the within-group sum of squared errors. It is the exact
// counterpart MDAV approximates, and the reproduction uses it to bound
// MDAV's information loss in ablations.
type OptimalUnivariate struct {
	// Column selects the quasi-identifier to aggregate; the remaining
	// quasi-identifiers are aggregated with the same groups (the method is
	// univariate — group structure comes from Column alone).
	Column string
	// CentroidAsInterval mirrors Options.CentroidAsInterval.
	CentroidAsInterval bool
}

// Name identifies the scheme in reports.
func (o *OptimalUnivariate) Name() string { return "optimal-univariate-microaggregation" }

// Anonymize implements the core Anonymizer contract.
func (o *OptimalUnivariate) Anonymize(t *dataset.Table, k int) (*dataset.Table, error) {
	groups, err := o.Assign(t, k)
	if err != nil {
		return nil, err
	}
	return Aggregate(t, groups, o.CentroidAsInterval)
}

// Assign returns the optimal groups as row-index sets.
func (o *OptimalUnivariate) Assign(t *dataset.Table, k int) ([][]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("microagg: k must be ≥ 2, got %d", k)
	}
	n := t.NumRows()
	if n < k {
		return nil, fmt.Errorf("%w: %d < %d", ErrTooFewRecords, n, k)
	}
	if o.Column == "" {
		return nil, errors.New("microagg: optimal univariate needs a column")
	}
	col, err := t.Schema().Lookup(o.Column)
	if err != nil {
		return nil, err
	}
	if t.Schema().Column(col).Class != dataset.QuasiIdentifier {
		return nil, fmt.Errorf("microagg: column %q is not a quasi-identifier", o.Column)
	}
	if t.Schema().Column(col).Kind != dataset.Number {
		return nil, fmt.Errorf("microagg: column %q is not numeric", o.Column)
	}

	// Sort row indices by the column value (stable on index).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	vals := t.ColumnFloats(col, 0)
	if err := checkFinite(t, []int{col}, vals); err != nil {
		return nil, err
	}
	sort.SliceStable(order, func(a, b int) bool {
		if vals[order[a]] != vals[order[b]] {
			return vals[order[a]] < vals[order[b]]
		}
		return order[a] < order[b]
	})
	sorted := make([]float64, n)
	for i, idx := range order {
		sorted[i] = vals[idx]
	}

	// Prefix sums for O(1) within-group SSE of any contiguous run. dp[i] is
	// the minimal cost of partitioning the first i sorted values, inf
	// while none is feasible; cut[i] records the start of the last group.
	const inf = 1e308
	prefix := make([]float64, n+1)
	prefixSq := make([]float64, n+1)
	sums := func() {
		for i, v := range sorted {
			prefix[i+1] = prefix[i] + v
			prefixSq[i+1] = prefixSq[i] + v*v
		}
	}
	sums()
	if !(prefixSq[n] < inf) {
		// The squares reach the sentinel or overflow, so costs could too,
		// and an overflowed SSE is NaN or Inf. Scale the values by a power
		// of two below 2^(500−L), n < 2^L: sums, squares and costs then
		// stay under 2^1000. The scaling is exact (unless it pushes a value
		// below 2^−1022), so every cost scales by its square and the DP
		// picks the runs exact arithmetic would at the old scale.
		_, e := math.Frexp(max(-sorted[0], sorted[n-1]))
		shift := 500 - bits.Len(uint(n)) - e
		for i, v := range sorted {
			sorted[i] = math.Ldexp(v, shift)
		}
		sums()
	}
	sse := func(lo, hi int) float64 { // [lo, hi)
		cnt := float64(hi - lo)
		sum := prefix[hi] - prefix[lo]
		sq := prefixSq[hi] - prefixSq[lo]
		return sq - sum*sum/cnt
	}

	dp := make([]float64, n+1)
	cut := make([]int, n+1)
	for i := 1; i <= n; i++ {
		dp[i] = inf
		for size := k; size <= 2*k-1 && size <= i; size++ {
			j := i - size
			if dp[j] == inf && j != 0 {
				continue
			}
			var base float64
			if j > 0 {
				base = dp[j]
			}
			if c := base + sse(j, i); c < dp[i] {
				dp[i] = c
				cut[i] = j
			}
		}
	}
	if dp[n] == inf {
		return nil, fmt.Errorf("microagg: no feasible [k, 2k-1] partition of %d records with k=%d", n, k)
	}
	var groups [][]int
	for i := n; i > 0; i = cut[i] {
		lo := cut[i]
		g := make([]int, 0, i-lo)
		for s := lo; s < i; s++ {
			g = append(g, order[s])
		}
		groups = append(groups, g)
	}
	// Reverse for ascending order (cosmetic but deterministic).
	for a, b := 0, len(groups)-1; a < b; a, b = a+1, b-1 {
		groups[a], groups[b] = groups[b], groups[a]
	}
	return groups, nil
}

// VMDAV is the variable-size extension of MDAV: after forming each k-group
// around the farthest record, it extends the group with additional nearby
// records (up to 2k−1) when they are closer to the group than to the rest —
// gaining lower information loss on clustered data at equal k.
type VMDAV struct {
	Opts Options
	// Gamma controls extension eagerness: a candidate joins when its
	// distance to the group is below Gamma times its distance to the
	// nearest outside record. The literature default is 0.2... 1.1
	// depending on data; 1.0 is a reasonable balance.
	Gamma float64
}

// NewVMDAV returns a V-MDAV anonymizer with standardized distances and
// gamma 1.0.
func NewVMDAV() *VMDAV { return &VMDAV{Opts: DefaultOptions(), Gamma: 1.0} }

// Name identifies the scheme in reports.
func (v *VMDAV) Name() string { return "v-mdav-microaggregation" }

// Anonymize implements the core Anonymizer contract.
func (v *VMDAV) Anonymize(t *dataset.Table, k int) (*dataset.Table, error) {
	groups, err := v.Assign(t, k)
	if err != nil {
		return nil, err
	}
	return Aggregate(t, groups, v.Opts.CentroidAsInterval)
}

// Assign runs V-MDAV and returns groups of size in [k, 2k−1]. It rejects
// what MDAV's Assign rejects, NaN and ±Inf coordinates included, and a
// negative or NaN Gamma; +Inf extends every group as far as it can grow.
func (v *VMDAV) Assign(t *dataset.Table, k int) ([][]int, error) {
	if !(v.Gamma >= 0) {
		return nil, fmt.Errorf("microagg: gamma %g must be non-negative", v.Gamma)
	}
	kn, err := newTableKernel(t, k, v.Opts.Standardize)
	if err != nil {
		return nil, err
	}
	return kn.vassign(k, v.Gamma), nil
}
