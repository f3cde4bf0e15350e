package mondrian

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// referencePartition is Mondrian with a per-split sort: every split sorts its
// segment of one shared row-index buffer by (value, row) on the widest
// column, then recurses on the two halves, depth first. The partitioner in
// mondrian.go must produce its leaves exactly, row order inside each leaf
// included.
func referencePartition(a *Anonymizer, t *dataset.Table, k int) [][]int {
	qis := t.Schema().IndicesOf(dataset.QuasiIdentifier)
	n := t.NumRows()
	r := &refPartitioner{a: a, k: k}
	r.vals = make([][]float64, len(qis))
	r.ok = make([][]bool, len(qis))
	r.span = make([]float64, len(qis))
	r.idx = make([]int, n)
	for i := range r.idx {
		r.idx[i] = i
	}
	for j, c := range qis {
		r.vals[j], r.ok[j] = t.FloatColumn(c)
		lo, hi := rangeOf(r.vals[j], r.ok[j], r.idx)
		r.span[j] = hi - lo
	}
	var leaves [][]int
	for _, s := range r.split(0, n) {
		leaves = append(leaves, r.idx[s[0]:s[1]:s[1]])
	}
	return leaves
}

type refPartitioner struct {
	a    *Anonymizer
	vals [][]float64
	ok   [][]bool
	span []float64
	idx  []int
	k    int
}

// split partitions idx[lo:hi] and returns its leaf [lo, hi) ranges in
// depth-first order.
func (r *refPartitioner) split(lo, hi int) [][2]int {
	seg := r.idx[lo:hi]
	if len(seg) < 2*r.k {
		return [][2]int{{lo, hi}}
	}
	bestDim, bestWidth := -1, -1.0
	for j := range r.vals {
		l, h := rangeOf(r.vals[j], r.ok[j], seg)
		if r.span[j] == 0 {
			continue
		}
		w := (h - l) / r.span[j]
		if w > bestWidth {
			bestWidth, bestDim = w, j
		}
	}
	if bestDim < 0 || bestWidth == 0 {
		if !r.a.Relaxed {
			return [][2]int{{lo, hi}}
		}
		bestDim = 0
	}
	cut, ok := referenceMedianSplit(r.a.Relaxed, r.vals[bestDim], seg, r.k)
	if !ok {
		return [][2]int{{lo, hi}}
	}
	return append(r.split(lo, lo+cut), r.split(lo+cut, hi)...)
}

// referenceMedianSplit sorts seg in place by (value, row) and returns the
// cut: the median when relaxed, else the allowable cut between distinct
// values closest to the median, the first found on a tie.
func referenceMedianSplit(relaxed bool, vals []float64, seg []int, k int) (cut int, ok bool) {
	slices.SortFunc(seg, func(x, y int) int {
		switch {
		case vals[x] < vals[y]:
			return -1
		case vals[x] > vals[y]:
			return 1
		}
		return x - y
	})
	if relaxed {
		mid := len(seg) / 2
		if mid < k || len(seg)-mid < k {
			return 0, false
		}
		return mid, true
	}
	bestCut, bestDist := -1, len(seg)+1
	for c := k; c <= len(seg)-k; c++ {
		if vals[seg[c-1]] == vals[seg[c]] {
			continue
		}
		d := c - len(seg)/2
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			bestDist, bestCut = d, c
		}
	}
	if bestCut < 0 {
		return 0, false
	}
	return bestCut, true
}

// referenceRelease generalizes t's quasi-identifiers to each leaf's covering
// interval, reading the columns afresh and writing one cell at a time.
func referenceRelease(t *testing.T, tb *dataset.Table, leaves [][]int) *dataset.Table {
	t.Helper()
	out := tb.Clone()
	for _, c := range tb.Schema().IndicesOf(dataset.QuasiIdentifier) {
		vals, ok := tb.FloatColumn(c)
		for _, p := range leaves {
			lo, hi := rangeOf(vals, ok, p)
			cell := dataset.Span(lo, hi)
			if lo == hi {
				cell = dataset.Num(lo)
			}
			for _, i := range p {
				if err := out.SetCell(i, c, cell); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return out
}

func snapshotBytes(t *testing.T, tb *dataset.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func csvBytes(t *testing.T, tb *dataset.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, tb); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tieHeavyTable is the generator of TestPartitionParallelDeterminism: n rows
// of a 20-value, a continuous and a 3-value column.
func tieHeavyTable(t *testing.T, n int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(rng.Intn(20)), rng.Float64() * 100, float64(rng.Intn(3))}
	}
	return numTable(t, rows)
}

// signedZeroTable mixes −0, +0 and small integers in its first column.
func signedZeroTable(t *testing.T, n int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	first := []float64{math.Copysign(0, -1), 0, -2, -1, 1, 2}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{first[rng.Intn(len(first))], float64(rng.Intn(5))}
	}
	return numTable(t, rows)
}

// constantColumnTable has one constant column between two varying ones.
func constantColumnTable(t *testing.T, n int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(rng.Intn(9)), 4, rng.Float64()}
	}
	return numTable(t, rows)
}

// maskedTable is tieHeavyTable with some cells suppressed and some
// generalized to intervals.
func maskedTable(t *testing.T, n int, seed int64) *dataset.Table {
	tb := tieHeavyTable(t, n, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < n; i++ {
		for c := 1; c <= 3; c++ {
			var cell dataset.Value
			switch rng.Intn(8) {
			case 0:
				cell = dataset.NullValue()
			case 1:
				lo := float64(rng.Intn(10))
				cell = dataset.Span(lo, lo+float64(rng.Intn(3)))
			default:
				continue
			}
			if err := tb.SetCell(i, c, cell); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tb
}

// singleColumnTable has one tie-heavy quasi-identifier.
func singleColumnTable(t *testing.T, n int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(rng.Intn(12))}
	}
	return numTable(t, rows)
}

// TestPartitionMatchesReference pins the partitioner to the per-split-sort
// reference: the same leaves, rows in the same order inside each leaf, and
// byte-identical releases, strict and relaxed, at budgets nil, 2 and 8, on
// tables either side of radixMin. Where P's quasi-identifiers hold only
// numbers (every table but the masked one), the column-wise release also
// has the per-cell release's buffers, so their snapshots match byte for
// byte.
func TestPartitionMatchesReference(t *testing.T) {
	type tcase struct {
		name string
		tbl  *dataset.Table
		ks   []int
	}
	var cases []tcase
	for _, n := range []int{60, 500} {
		cases = append(cases,
			tcase{"tie-heavy", tieHeavyTable(t, n, 17), []int{2, 5, 11}},
			tcase{"signed-zero", signedZeroTable(t, n, int64(n)), []int{2, 3, 7}},
			tcase{"constant-column", constantColumnTable(t, n, 5), []int{2, 6}},
			tcase{"masked", maskedTable(t, n, 9), []int{2, 4, 9}},
			tcase{"single-column", singleColumnTable(t, n, 3), []int{2, 5}},
		)
	}
	// Segments just below, at and above 2k rows, odd and even.
	for _, k := range []int{3, 4} {
		for _, n := range []int{2*k - 1, 2 * k, 2*k + 1, 2*k + 2, 4*k - 1, 4 * k, 4*k + 1} {
			cases = append(cases, tcase{fmt.Sprintf("near-2k-k=%d", k), tieHeavyTable(t, n, int64(n)), []int{k}})
		}
	}
	// Either side of the insertion-sort cutoff.
	for _, n := range []int{radixMin - 1, radixMin} {
		cases = append(cases, tcase{"tie-heavy", tieHeavyTable(t, n, int64(n)), []int{2, 5}})
	}
	university, _, err := datagen.University(datagen.UniversityConfig{Seed: 11, N: 20000})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tcase{"university", university, []int{2, 8, 33}})

	budgets := []struct {
		name string
		mk   func() *parallel.Budget
	}{
		{"nil", func() *parallel.Budget { return nil }},
		{"w2", func() *parallel.Budget { return parallel.NewBudget(2) }},
		{"w8", func() *parallel.Budget { return parallel.NewBudget(8) }},
	}
	for _, c := range cases {
		for _, k := range c.ks {
			for _, relaxed := range []bool{false, true} {
				name := fmt.Sprintf("%s/n=%d/k=%d/relaxed=%v", c.name, c.tbl.NumRows(), k, relaxed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					a := &Anonymizer{Relaxed: relaxed}
					want := referencePartition(a, c.tbl, k)
					wantRel := referenceRelease(t, c.tbl, want)
					wantCSV := csvBytes(t, wantRel)
					for _, b := range budgets {
						got, err := a.PartitionParallel(c.tbl, k, b.mk())
						if err != nil {
							t.Fatal(err)
						}
						if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
							t.Fatalf("%s: leaves diverge from the reference:\ngot  %v\nwant %v", b.name, got, want)
						}
						rel, err := a.AnonymizeParallel(c.tbl, k, b.mk())
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(csvBytes(t, rel), wantCSV) {
							t.Fatalf("%s: release differs from the reference's", b.name)
						}
						if c.name != "masked" && !bytes.Equal(snapshotBytes(t, rel), snapshotBytes(t, wantRel)) {
							t.Fatalf("%s: release snapshot differs from the reference's", b.name)
						}
					}
				})
			}
		}
	}
}
