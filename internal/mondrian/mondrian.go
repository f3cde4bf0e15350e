// Package mondrian implements Mondrian multidimensional k-anonymity
// (LeFevre, DeWitt, Ramakrishnan, ICDE 2006 — reference [3] of the paper).
//
// Mondrian recursively median-splits the quasi-identifier space along the
// dimension with the widest normalized range, as long as both halves keep at
// least k records (strict partitioning), then generalizes each leaf
// partition's quasi-identifiers to the covering interval.
//
// It is the second partitioning baseline the reproduction uses to check the
// paper's claim that "other solutions in this category produce similar
// results".
//
// Each table's quasi-identifier columns are sorted by (value, row) once, with
// a stable radix sort, into one row order per column — the presorted
// attribute lists of SPRINT (Shafer, Agrawal, Mehta, VLDB 1996); Prepare
// keeps that work for a sweep's levels to share. A split reads its cut
// off the split column's order and stable-partitions every other column's
// order into its left rows followed by its right rows, so each segment stays
// sorted on every column and no split sorts again. Sibling segments own
// disjoint ranges of every buffer, so independent sub-partitions recurse on
// spare workers from a parallel.Budget, and the leaves, which tile the rows
// in depth-first order, are the same at any worker count. DESIGN.md gives
// the exactness argument and the order a leaf lists its rows in.
package mondrian

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/parallel"
)

// Anonymizer runs Mondrian partitioning. The zero value is ready to use.
type Anonymizer struct {
	// Relaxed allows ties at the median to be split between the halves
	// (relaxed multidimensional partitioning). The strict variant keeps
	// records with equal split values together.
	Relaxed bool
}

// New returns a strict Mondrian anonymizer.
func New() *Anonymizer { return &Anonymizer{} }

// Name identifies the scheme in reports.
func (a *Anonymizer) Name() string { return "mondrian" }

// Anonymize returns a k-anonymous copy of t with quasi-identifiers replaced
// by per-partition covering intervals.
func (a *Anonymizer) Anonymize(t *dataset.Table, k int) (*dataset.Table, error) {
	return a.AnonymizeParallel(t, k, nil)
}

// AnonymizeParallel is Anonymize with the column sorts and independent
// sub-partitions spread over spare workers borrowed from b. A nil budget
// runs fully inline; the output is identical at every budget.
func (a *Anonymizer) AnonymizeParallel(t *dataset.Table, k int, b *parallel.Budget) (*dataset.Table, error) {
	return a.prepare(t, b).anonymize(k, b)
}

// Prepare does the work on t that does not depend on k once — validation,
// column extraction, global spans, and each quasi-identifier column sorted
// by (value, row), on spare workers from b — and returns the function that
// anonymizes t at any level k from it, equal to AnonymizeParallel(t, k, b)
// at every budget. The function is safe for concurrent use: each call
// copies the sorted orders it refines. It reports k's errors first, then
// t's, in AnonymizeParallel's order.
func (a *Anonymizer) Prepare(t *dataset.Table, b *parallel.Budget) func(k int, b *parallel.Budget) (*dataset.Table, error) {
	return a.prepare(t, b).anonymize
}

// Partition returns the leaf partitions (row index groups), each of size ≥ k.
func (a *Anonymizer) Partition(t *dataset.Table, k int) ([][]int, error) {
	return a.PartitionParallel(t, k, nil)
}

// PartitionParallel is Partition with the column sorts and independent
// sub-partitions spread over spare workers from b. The split tree depends
// only on the data, so the leaves are identical to the sequential ones, in
// the same depth-first order, at any worker budget.
func (a *Anonymizer) PartitionParallel(t *dataset.Table, k int, b *parallel.Budget) ([][]int, error) {
	p, err := a.prepare(t, b).partition(k, b)
	if err != nil {
		return nil, err
	}
	return p.leaves, nil
}

// prepared is a table with Mondrian's k-invariant work done, columns
// indexed by quasi-identifier position. Everything in it is read-only once
// prepare returns. Rows are int32 in the orders, which bounds a table to
// 2³¹−1 rows.
type prepared struct {
	a    *Anonymizer
	t    *dataset.Table
	n    int
	qis  []int
	vals [][]float64
	ok   [][]bool
	span []float64 // global hi−lo per dimension
	// sorted[j] lists all rows sorted by (vals[j][row], row); rank[j][row]
	// is the row's position in it.
	sorted, rank [][]int32
	// err is t's validation failure, reported after the checks of k.
	err error
}

// prepare validates t, reads its quasi-identifier columns and sorts them.
// A table that fails validation is not read further.
func (a *Anonymizer) prepare(t *dataset.Table, b *parallel.Budget) *prepared {
	p := &prepared{a: a, t: t, n: t.NumRows(), qis: t.Schema().IndicesOf(dataset.QuasiIdentifier)}
	if len(p.qis) == 0 {
		p.err = errors.New("mondrian: table has no quasi-identifier columns")
		return p
	}
	for _, c := range p.qis {
		if t.Schema().Column(c).Kind != dataset.Number {
			p.err = fmt.Errorf("mondrian: quasi-identifier %q is not numeric", t.Schema().Column(c).Name)
			return p
		}
	}
	// Extract every quasi-identifier column once; the recursion then works
	// on flat vectors instead of per-cell reads.
	p.vals = make([][]float64, len(p.qis))
	p.ok = make([][]bool, len(p.qis))
	p.span = make([]float64, len(p.qis))
	for j, c := range p.qis {
		p.vals[j], p.ok[j] = t.FloatColumn(c)
		lo, hi, first := 0.0, 0.0, true
		for i, v := range p.vals[j] {
			if !p.ok[j][i] {
				continue
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				p.err = fmt.Errorf("mondrian: quasi-identifier %q has a non-finite value (NaN or ±Inf)", t.Schema().Column(c).Name)
				return p
			}
			switch {
			case first:
				lo, hi, first = v, v, false
			case v < lo:
				lo = v
			case v > hi:
				hi = v
			}
		}
		// Global ranges for normalized width comparison.
		p.span[j] = hi - lo
	}
	p.sortColumns(b)
	return p
}

// partition splits the prepared rows into leaves of at least k rows.
func (p *prepared) partition(k int, b *parallel.Budget) (*partitioner, error) {
	if k < 2 {
		return nil, fmt.Errorf("mondrian: k must be ≥ 2, got %d", k)
	}
	n := p.n
	if n < k {
		return nil, fmt.Errorf("mondrian: %d records cannot be %d-anonymous: %w", n, k, dataset.ErrTooFewRecords)
	}
	if p.err != nil {
		return nil, p.err
	}
	pt := &partitioner{prepared: p, k: k, b: b}
	d := len(p.sorted)
	flat := make([]int32, d*n)
	pt.order = make([][]int32, d)
	for j, s := range p.sorted {
		pt.order[j] = flat[j*n : (j+1)*n : (j+1)*n]
		copy(pt.order[j], s)
	}
	pt.rows = make([]int, n)
	for i := range pt.rows {
		pt.rows[i] = i
	}
	pt.scratch = make([]int32, n)
	pt.split(0, n, -1)
	// Each leaf recorded its end at scratch[lo]; leaves tile [0, n) in
	// depth-first order, so walking the ends from 0 lists them in order.
	count := 0
	for lo := 0; lo < n; lo = int(pt.scratch[lo]) {
		count++
	}
	pt.leaves = make([][]int, 0, count)
	for lo := 0; lo < n; {
		hi := int(pt.scratch[lo])
		pt.leaves = append(pt.leaves, pt.rows[lo:hi:hi])
		lo = hi
	}
	return pt, nil
}

// anonymize partitions the prepared rows at level k and writes the release:
// every quasi-identifier column replaced, in one pass, by each row's leaf
// range (a number where the range is a point).
func (p *prepared) anonymize(k int, b *parallel.Budget) (*dataset.Table, error) {
	pt, err := p.partition(k, b)
	if err != nil {
		return nil, err
	}
	n, out := p.n, p.t
	bounds := make([]float64, 2*len(p.qis)*n)
	for j, c := range p.qis {
		lo, hi := bounds[2*j*n:(2*j+1)*n:(2*j+1)*n], bounds[(2*j+1)*n:(2*j+2)*n:(2*j+2)*n]
		for _, leaf := range pt.leaves {
			l, h := rangeOf(p.vals[j], p.ok[j], leaf)
			for _, i := range leaf {
				lo[i], hi[i] = l, h
			}
		}
		if out, err = out.WithColumnBounds(c, lo, hi, nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// partitioner is the state of one partitioning run over a prepared table.
type partitioner struct {
	*prepared
	k      int
	b      *parallel.Budget
	leaves [][]int
	// order[j][lo:hi] lists the rows of segment [lo, hi) sorted by
	// (vals[j][row], row), for every column j and every segment; it starts
	// as a copy of sorted.
	order [][]int32
	// rows[lo:hi] lists a leaf's rows in the order DESIGN.md gives; the
	// leaves are sub-slices of it.
	rows []int
	// scratch[lo:hi] holds the right rows while segment [lo, hi) is
	// refined; once the segment is a leaf, scratch[lo] holds its end.
	scratch []int32
}

// split partitions segment [lo, hi) and writes its leaves. by is the column
// whose order a leaf lists its rows in: the parent's split column, or −1 at
// the root, whose rows stay in row order. When a spare worker token is
// available the left half recurses on a goroutine.
func (p *partitioner) split(lo, hi, by int) {
	if hi-lo < 2*p.k {
		p.leaf(lo, hi, by)
		return
	}
	// Choose the dimension with the widest normalized range.
	bestDim, bestWidth := -1, -1.0
	for j := range p.order {
		if p.span[j] == 0 {
			continue
		}
		l, h := p.segRange(j, lo, hi)
		w := (h - l) / p.span[j]
		if w > bestWidth {
			bestWidth, bestDim = w, j
		}
	}
	if bestDim < 0 || bestWidth == 0 {
		if !p.a.Relaxed {
			p.leaf(lo, hi, by)
			return
		}
		// Relaxed partitioning may still split an all-ties partition
		// (the halves get identical generalized cells, which is fine).
		bestDim = 0
	}
	cut, ok := p.a.medianSplit(p.vals[bestDim], p.order[bestDim][lo:hi], p.k)
	if !ok {
		// A segment that found no allowable cut lists its rows in the
		// order of the column it tried to cut.
		p.leaf(lo, hi, bestDim)
		return
	}
	mid := lo + cut
	// Leaves read only the split column's order, so the other orders
	// need refining only when a half splits again.
	if cut >= 2*p.k || hi-mid >= 2*p.k {
		p.refine(lo, mid, hi, bestDim)
	}
	if p.b.TryAcquire() {
		done := make(chan struct{})
		go func() {
			p.split(lo, mid, bestDim)
			p.b.Release()
			close(done)
		}()
		p.split(mid, hi, bestDim)
		<-done
		return
	}
	p.split(lo, mid, bestDim)
	p.split(mid, hi, bestDim)
}

// leaf lists the rows of leaf segment [lo, hi) in column by's order (row
// order when by is −1) and records the leaf's end at scratch[lo].
func (p *partitioner) leaf(lo, hi, by int) {
	if by >= 0 {
		for i, r := range p.order[by][lo:hi] {
			p.rows[lo+i] = int(r)
		}
	}
	p.scratch[lo] = int32(hi)
}

// segRange is rangeOf over segment [lo, hi) of column j, read off the ends
// of its sorted order: the first and last present rows hold the minimum and
// maximum (up to the sign of a zero, which no width comparison sees).
func (p *partitioner) segRange(j, lo, hi int) (float64, float64) {
	seg, vals, ok := p.order[j][lo:hi], p.vals[j], p.ok[j]
	f := 0
	for f < len(seg) && !ok[seg[f]] {
		f++
	}
	if f == len(seg) {
		return 0, 0
	}
	l := len(seg) - 1
	for !ok[seg[l]] {
		l--
	}
	return vals[seg[f]], vals[seg[l]]
}

// refine splits segment [lo, hi) at mid in every order: it stable-partitions
// every column's order but b's into its left rows followed by its right rows,
// so both halves stay sorted on every column. A row is left of the cut when
// it ranks below the first right row in column b.
func (p *partitioner) refine(lo, mid, hi, b int) {
	rank := p.rank[b]
	pivot := rank[p.order[b][mid]]
	right := p.scratch[lo:hi]
	for j, ord := range p.order {
		if j == b {
			continue
		}
		seg := ord[lo:hi]
		// Branch-free: every row is written to both sides and only the
		// side it belongs to advances. Left rows compact in place, since
		// the write position never passes the read position.
		l, r := 0, 0
		for _, row := range seg {
			s := 0
			if rank[row] < pivot {
				s = 1
			}
			seg[l] = row
			right[r] = row
			l += s
			r += 1 - s
		}
		copy(seg[l:], right[:r])
	}
}

// medianSplit returns the cut position within seg, which lists at least 2k
// rows sorted by (value, row) (suppressed cells read as 0, as in the
// cellwise form). Relaxed cuts at the median, which leaves both halves ≥ k.
// Strict cuts between distinct values only, at the cut closest to the median
// that leaves both halves ≥ k, the lower of two equally close; it returns
// ok=false when there is none.
func (a *Anonymizer) medianSplit(vals []float64, seg []int32, k int) (cut int, ok bool) {
	n, m := len(seg), len(seg)/2
	if a.Relaxed {
		return m, true
	}
	for d := 0; m-d >= k || m+d <= n-k; d++ {
		if c := m - d; c >= k && vals[seg[c-1]] != vals[seg[c]] {
			return c, true
		}
		if c := m + d; c <= n-k && vals[seg[c-1]] != vals[seg[c]] {
			return c, true
		}
	}
	return 0, false
}

// sortColumns fills every column's sorted order with its rows sorted by
// (value, row), and its rank with each row's position in that order.
// Columns are sorted concurrently on spare tokens from b; each worker reuses
// one set of sort scratch for every column it sorts.
func (p *prepared) sortColumns(b *parallel.Budget) {
	n, d := p.n, len(p.vals)
	flat := make([]int32, 2*d*n)
	p.sorted, p.rank = make([][]int32, d), make([][]int32, d)
	for j := range p.sorted {
		p.sorted[j] = flat[2*j*n : (2*j+1)*n : (2*j+1)*n]
		p.rank[j] = flat[(2*j+1)*n : (2*j+2)*n : (2*j+2)*n]
	}
	var next atomic.Int64
	work := func() {
		var s sorter
		for j := int(next.Add(1)) - 1; j < d; j = int(next.Add(1)) - 1 {
			s.sort(p.vals[j], p.sorted[j])
			for i, row := range p.sorted[j] {
				p.rank[j][row] = int32(i)
			}
		}
	}
	// A column short enough for the insertion sort costs less to sort
	// than a goroutine costs to start.
	var wg sync.WaitGroup
	for h := 1; h < d && n >= radixMin && b.TryAcquire(); h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer b.Release()
			work()
		}()
	}
	work()
	wg.Wait()
}

// radixMin is the row count below which an insertion sort beats the radix
// sort's fixed histogram cost. Both are stable and fed in row order, so both
// produce the one order that the strict total order on (value, row) allows.
const radixMin = 80

// sorter is one worker's sort scratch, grown on first use.
type sorter struct {
	keys, keys2 []uint64
	rows2       []int32
}

// sortKey maps v to an unsigned integer in the same order: −0 folds into +0,
// as the comparison treats them as equal, negative values have every bit
// flipped and the rest have the sign bit set.
func sortKey(v float64) uint64 {
	x := math.Float64bits(v)
	if v == 0 {
		x = 0
	}
	if x>>63 != 0 {
		return ^x
	}
	return x | 1<<63
}

// sort writes into order the rows 0..len(vals)−1 sorted by (vals[row], row):
// a least-significant-digit radix sort over sortKey, one byte per pass, fed
// in row order. Each pass is stable, so equal keys stay in row order. A pass
// whose byte is the same in every key would move nothing and is skipped.
// Below radixMin rows, an insertion sort of the keys, also stable, is used.
func (s *sorter) sort(vals []float64, order []int32) {
	n := len(vals)
	if len(s.keys) < n {
		s.keys = make([]uint64, n)
	}
	keys, rows := s.keys[:n], order[:n]
	if n < radixMin {
		for i, v := range vals {
			x, j := sortKey(v), i
			for ; j > 0 && keys[j-1] > x; j-- {
				keys[j], rows[j] = keys[j-1], rows[j-1]
			}
			keys[j], rows[j] = x, int32(i)
		}
		return
	}
	if len(s.keys2) < n {
		s.keys2, s.rows2 = make([]uint64, n), make([]int32, n)
	}
	keys2, rows2 := s.keys2[:n], s.rows2[:n]
	var count [8][256]int32
	for i, v := range vals {
		x := sortKey(v)
		keys[i], rows[i] = x, int32(i)
		count[0][byte(x)]++
		count[1][byte(x>>8)]++
		count[2][byte(x>>16)]++
		count[3][byte(x>>24)]++
		count[4][byte(x>>32)]++
		count[5][byte(x>>40)]++
		count[6][byte(x>>48)]++
		count[7][byte(x>>56)]++
	}
	for d := range count {
		c, shift := &count[d], uint(8*d)
		if int(c[byte(keys[0]>>shift)]) == n {
			continue
		}
		var sum int32
		for b, m := range c {
			c[b], sum = sum, sum+m
		}
		for i, x := range keys {
			b := byte(x >> shift)
			at := c[b]
			c[b] = at + 1
			keys2[at], rows2[at] = x, rows[i]
		}
		keys, keys2 = keys2, keys
		rows, rows2 = rows2, rows
	}
	if &rows[0] != &order[0] {
		copy(order, rows)
	}
}

// rangeOf is the observed [min, max] of the partition's numeric readings,
// skipping suppressed cells.
func rangeOf(vals []float64, ok []bool, idx []int) (lo, hi float64) {
	first := true
	for _, i := range idx {
		if !ok[i] {
			continue
		}
		v := vals[i]
		if first {
			lo, hi, first = v, v, false
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
