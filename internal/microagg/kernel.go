package microagg

import (
	"math"

	"repro/internal/stats"
)

// MDAV asks two questions of the rows that remain, round after round: which
// row lies farthest from a point, and which rows lie nearest to one. The
// kernel answers both from an exact k-d tree built once per table over the
// (standardized) points; each run at a level k copies the tree's live
// state (clone), and carving a group takes its rows out of that copy, so
// each query sees exactly the remaining rows. MDAV and V-MDAV share it. A
// round's first seed comes from running column sums, certified against the
// row-order centroid the reference computes (seed). Farthest-row queries
// prune by each node's box and by its rows' distances from a fixed anchor
// (radial). The groups are bit-identical to brute-force scans of the
// row-slice formulation (referenceAssign and referenceVAssign in
// reference_test.go); DESIGN.md gives the argument.

// leafSize is the most rows a tree leaf holds, chosen by measurement. On
// BenchmarkAssign and a 10⁴-row k=2..16 sweep, leaves of 16 to 64 rows ran
// within noise of each other from 250 rows up; 48 keeps the paper's 40-row
// cohort in one leaf, where leaves of 16 or 32 ran 1.3× slower.
const leafSize = 48

// u is the unit roundoff of float64 arithmetic, round to nearest.
const u = 0x1p-53

// maxCertified is the largest computed seed distance seed certifies; far
// below overflow, so the reference's own distances stay finite.
const maxCertified = 0x1p1000

// kdNode is one node of the tree. Nodes are stored in preorder, so an inner
// node's left child is the node after it.
type kdNode struct {
	right int32 // index of the right child; 0 marks a leaf
	start int32 // first of the node's slots in kernel.rows
	live  int32 // rows not yet carved; a leaf keeps them in rows[start:start+live]
	first int32 // lowest-numbered live row, which settles ties at the bound
}

// frame is a node waiting on a query's stack, with the bound on the
// distance from the query point to any row the node holds.
type frame struct {
	node  int32
	bound float64
}

// kernel carries the points, the tree and all per-run scratch. newKernel
// builds one per table, which only clone reads; each run works on a clone.
type kernel struct {
	pts  []float64 // n×d row-major
	n, d int

	nodes []kdNode
	box   []float64 // per node: d lows, then d highs, bounding its live rows
	rmax  []float64 // per node: the largest rad among its live rows
	rows  []int32   // rows in tree order
	slot  []int32   // row → its index in rows; −1 once carved

	stack []frame
	path  []int32 // root-to-leaf scratch of descend
	dirty []int32 // leaves a take must refit
	near  stats.Nearest

	fitted    []float64 // 2d: refit scratch
	centroid  []float64
	remaining []int32 // uncarved rows, ascending; compacted on fallback rounds
	arena     []int   // backing store of the returned groups, which partition 0..n−1

	// What seed certifies from: per column, the running sum of the live
	// rows, a bound on its distance from their exact sum, and Σ|x| over all
	// rows. shrink is 1 − 2γ_{d+2} less 8u, which covers tau's rounding.
	sum, drift, absSum []float64
	shrink             float64
	fallbacks          int // rounds seed could not certify

	// The radial bound: anchor is the first round's running centroid, and
	// rad[i] the root of row i's computed distance from it. grow is
	// 1 + 2γ_{d+2} + 16u, which covers both distances' errors and the
	// rounding of radial's bound.
	anchor, rad []float64
	grow        float64
	dists       int // distances the farthest-row queries computed
}

// newKernel builds the kernel over the n×d points pts that every run at any
// k starts from: the tree with its boxes, first rows and rmax, the
// first-round running sums, absSum, the anchor and rad. Nothing writes it
// afterwards, so runs on clones of it may proceed concurrently.
func newKernel(pts []float64, n, d int) *kernel {
	kn := alloc(pts, n, d, 0)
	shared := make([]float64, 2*d+n)
	kn.absSum, kn.anchor, kn.rad = shared[:d:d], shared[d:2*d:2*d], shared[2*d:]
	for i := range kn.rows {
		kn.rows[i] = int32(i)
		kn.remaining[i] = int32(i)
	}
	// The sums start as the reference's first-round sums, in row order.
	for i := range n {
		for j, v := range kn.row(i) {
			kn.sum[j] += v
			kn.absSum[j] += math.Abs(v)
		}
	}
	for j, a := range kn.absSum {
		kn.drift[j] = gammaN(n-1) * a
		kn.anchor[j] = kn.sum[j] / float64(n)
	}
	for i := range n {
		kn.rad[i] = math.Sqrt(kn.sqDistTo(i, kn.anchor))
	}
	kn.box = kn.box[:2*d]
	if n > leafSize {
		kn.bound(kn.box, kn.rows)
	}
	kn.build(0, n)
	for s, r := range kn.rows {
		kn.slot[r] = int32(s)
	}
	return kn
}

// alloc returns a kernel over the n×d points pts with zeroed buffers for a
// tree over them and for a run at k; nodes and box are empty, for build or
// clone to fill.
func alloc(pts []float64, n, d, k int) *kernel {
	// Bound the tree's size and depth: each split leaves at most half its
	// node's rows, rounded up, on either side.
	nodes, depth := 1, 1
	for c := n; c > leafSize; c = (c + 1) / 2 {
		nodes = 2*nodes + 1
		depth++
	}
	// The int32 and float64 buffers share one allocation each.
	ints := make([]int32, 3*n+depth+k)
	floats := make([]float64, (2*d+1)*nodes+5*d)
	nb, nr := 2*d*nodes, (2*d+1)*nodes
	g := gammaN(d + 2)
	return &kernel{
		pts: pts, n: n, d: d,
		nodes:     make([]kdNode, 0, nodes),
		box:       floats[:0:nb],
		rmax:      floats[nb:nr:nr],
		rows:      ints[:n:n],
		slot:      ints[n : 2*n : 2*n],
		remaining: ints[2*n : 3*n : 3*n],
		path:      ints[3*n : 3*n : 3*n+depth],
		dirty:     ints[3*n+depth : 3*n+depth],
		fitted:    floats[nr : nr+2*d : nr+2*d],
		centroid:  floats[nr+2*d : nr+3*d : nr+3*d],
		sum:       floats[nr+3*d : nr+4*d : nr+4*d],
		drift:     floats[nr+4*d:],
		shrink:    1 - 2*g - 8*u,
		grow:      1 + 2*g + 16*u,
		stack:     make([]frame, 0, depth+1),
		arena:     make([]int, 0, n),
	}
}

// clone returns a kernel for one run at k from kn, which newKernel built:
// the tree's live state (nodes, boxes, rmax, rows, slots, the remaining
// list, sum and drift) copied, scratch of its own, and the points, absSum,
// the anchor and rad shared read-only.
func (kn *kernel) clone(k int) *kernel {
	c := alloc(kn.pts, kn.n, kn.d, k)
	c.nodes = append(c.nodes, kn.nodes...)
	c.box = append(c.box, kn.box...)
	copy(c.rmax, kn.rmax)
	copy(c.rows, kn.rows)
	copy(c.slot, kn.slot)
	copy(c.remaining, kn.remaining)
	copy(c.sum, kn.sum)
	copy(c.drift, kn.drift)
	c.absSum, c.anchor, c.rad = kn.absSum, kn.anchor, kn.rad
	c.near.Reset(k - 1) // allocates the heap once, here
	return c
}

func (kn *kernel) row(i int) []float64 { return kn.pts[i*kn.d : (i+1)*kn.d] }

// sqDistTo is the squared Euclidean distance of row i from ref, summed in
// column order: the arithmetic of the row-slice sqDist.
func (kn *kernel) sqDistTo(i int, ref []float64) float64 {
	row := kn.row(i)
	var s float64
	for j, v := range row {
		dd := v - ref[j]
		s += dd * dd
	}
	return s
}

// build appends the node over rows[lo:hi], then its subtree, in preorder.
// The caller has appended the node's box slot holding some box around those
// rows; a node of more than leafSize rows splits at the median along that
// box's widest dimension, handing each child this box cut at the split.
// Once the subtree is built, the node's box is tightened to its rows, except
// at the root, whose box no query reads.
func (kn *kernel) build(lo, hi int) {
	id := len(kn.nodes)
	kn.nodes = append(kn.nodes, kdNode{start: int32(lo), live: int32(hi - lo)})
	if hi-lo > leafSize {
		b, d := kn.nodeBox(id), kn.d
		dim := 0
		for j := 1; j < d; j++ {
			if b[d+j]-b[j] > b[d+dim]-b[dim] {
				dim = j
			}
		}
		mid := lo + (hi-lo)/2
		kn.selectNth(lo, hi, mid, dim)
		split := kn.pts[int(kn.rows[mid])*d+dim]
		kn.box = append(kn.box, b...)
		kn.box[len(kn.box)-d+dim] = split
		kn.build(lo, mid)
		kn.nodes[id].right = int32(len(kn.nodes))
		kn.box = append(kn.box, b...)
		kn.box[len(kn.box)-2*d+dim] = split
		kn.build(mid, hi)
	}
	if id > 0 {
		kn.refit(id)
	}
}

// selectNth reorders rows[lo:hi] so that no row before position nth has a
// larger coordinate along dim than the row at nth, and none after it a
// smaller one (Hoare's selection).
func (kn *kernel) selectNth(lo, hi, nth, dim int) {
	rows, pts, d := kn.rows, kn.pts, kn.d
	for hi-lo > 1 {
		pivot := pts[int(rows[lo+(hi-lo)/2])*d+dim]
		i, j := lo, hi-1
		for i <= j {
			for pts[int(rows[i])*d+dim] < pivot {
				i++
			}
			for pts[int(rows[j])*d+dim] > pivot {
				j--
			}
			if i <= j {
				rows[i], rows[j] = rows[j], rows[i]
				i++
				j--
			}
		}
		switch {
		case nth <= j:
			hi = j + 1
		case nth >= i:
			lo = i
		default:
			return
		}
	}
}

func (kn *kernel) nodeBox(id int) []float64 { return kn.box[id*2*kn.d : (id+1)*2*kn.d] }

// bound writes the bounds of the rows into b, d lows then d highs, and
// returns the lowest-numbered row and the largest rad among them.
func (kn *kernel) bound(b []float64, rows []int32) (first int32, rmax float64) {
	d := kn.d
	first, rmax = rows[0], kn.rad[rows[0]]
	copy(b[:d], kn.row(int(first)))
	copy(b[d:], kn.row(int(first)))
	for _, r := range rows[1:] {
		first = min(first, r)
		if v := kn.rad[r]; v > rmax {
			rmax = v // rad is never NaN; the builtin max, which checks, ran slower
		}
		for j, v := range kn.row(int(r)) {
			if v < b[j] {
				b[j] = v
			} else if v > b[d+j] {
				b[d+j] = v
			}
		}
	}
	return first, rmax
}

// refit recomputes node id's box, first row and rmax from its live rows (a
// leaf) or its live children (an inner node) and reports whether any
// changed. An empty node's box and rmax are never read.
func (kn *kernel) refit(id int) bool {
	nd, d := &kn.nodes[id], kn.d
	if nd.live == 0 {
		return true
	}
	nb := kn.fitted
	var first int32
	var rmax float64
	if nd.right == 0 {
		first, rmax = kn.bound(nb, kn.rows[nd.start:nd.start+nd.live])
	} else {
		l, r := &kn.nodes[id+1], &kn.nodes[nd.right]
		switch {
		case l.live == 0:
			copy(nb, kn.nodeBox(int(nd.right)))
			first, rmax = r.first, kn.rmax[nd.right]
		case r.live == 0:
			copy(nb, kn.nodeBox(id+1))
			first, rmax = l.first, kn.rmax[id+1]
		default:
			lb, rb := kn.nodeBox(id+1), kn.nodeBox(int(nd.right))
			for j := 0; j < d; j++ {
				nb[j] = min(lb[j], rb[j])
				nb[d+j] = max(lb[d+j], rb[d+j])
			}
			first, rmax = min(l.first, r.first), max(kn.rmax[id+1], kn.rmax[nd.right])
		}
	}
	changed := first != nd.first || rmax != kn.rmax[id]
	nd.first, kn.rmax[id] = first, rmax
	b := kn.nodeBox(id)
	for j, v := range nb {
		if v != b[j] {
			b[j] = v
			changed = true
		}
	}
	return changed
}

// maxDistBound bounds from above the distance sqDistTo computes from ref to
// any row in node id's box: per column, the box edge farther from ref, in
// sqDistTo's own subtract-square-add sequence.
func (kn *kernel) maxDistBound(id int, ref []float64) float64 {
	b, d := kn.nodeBox(id), kn.d
	var s float64
	for j, x := range ref {
		dd, dh := b[j]-x, b[d+j]-x
		if dh > -dd {
			dd = dh
		}
		s += dd * dd
	}
	return s
}

// minDistBound bounds from below the distance sqDistTo computes from ref to
// any row in node id's box: per column, the gap from ref to the box, zero
// when ref lies within its extent.
func (kn *kernel) minDistBound(id int, ref []float64) float64 {
	b, d := kn.nodeBox(id), kn.d
	var s float64
	for j, x := range ref {
		var dd float64
		if x < b[j] {
			dd = b[j] - x
		} else if x > b[d+j] {
			dd = b[d+j] - x
		}
		s += dd * dd
	}
	return s
}

// farthest returns the live row farthest from ref, the lowest-numbered of
// equally far rows: what a scan of the remaining rows in ascending order
// keeps with a strict >. A node is skipped only when no row in it can beat
// the best so far: its upper bound is below the best distance, or equal to
// it with every row numbered above the best row. A row is skipped when its
// radial bound is below the best distance.
func (kn *kernel) farthest(ref []float64) int {
	best, bestD := -1, -1.0
	rho, dists := kn.reach(ref), 0
	st := append(kn.stack[:0], frame{0, math.Inf(1)})
	for len(st) > 0 {
		f := st[len(st)-1]
		st = st[:len(st)-1]
		nd := kn.nodes[f.node]
		if f.bound < bestD || f.bound == bestD && int(nd.first) > best {
			continue
		}
		if nd.right == 0 {
			for _, r := range kn.rows[nd.start : nd.start+nd.live] {
				i := int(r)
				if kn.radial(kn.rad[i], rho) < bestD {
					continue
				}
				dists++
				if dd := kn.sqDistTo(i, ref); dd > bestD || dd == bestD && i < best {
					best, bestD = i, dd
				}
			}
			continue
		}
		st = kn.pushFarther(st, f.node, ref, rho)
	}
	kn.dists += dists
	return best
}

// farthestCert is farthest with pruning loosened to tau(bestD, delta): a
// node or row is skipped only when its bound, radial bound or distance lies
// below it. Besides the farthest row and its distance it returns rival, the
// largest distance at or above tau among rows whose coordinates differ from
// the best row's, or −1 when there is none.
func (kn *kernel) farthestCert(ref []float64, delta float64) (best int, bestD, rival float64) {
	best, bestD, rival = -1, -1.0, -1.0
	rivalRow, tau := -1, math.Inf(-1)
	rho, dists := kn.reach(ref), 0
	st := append(kn.stack[:0], frame{0, math.Inf(1)})
	for len(st) > 0 {
		f := st[len(st)-1]
		st = st[:len(st)-1]
		if f.bound < tau {
			continue
		}
		nd := kn.nodes[f.node]
		if nd.right == 0 {
			for _, r := range kn.rows[nd.start : nd.start+nd.live] {
				i := int(r)
				if kn.radial(kn.rad[i], rho) < tau {
					continue
				}
				dists++
				switch dd := kn.sqDistTo(i, ref); {
				case dd < tau:
				case dd > bestD || dd == bestD && i < best:
					// A rival that coincides with i ties with the old
					// best, which then differs from i and replaces it.
					if rivalRow >= 0 && kn.same(rivalRow, i) {
						rival, rivalRow = -1, -1
					}
					if best >= 0 && bestD > rival && !kn.same(best, i) {
						rival, rivalRow = bestD, best
					}
					best, bestD = i, dd
					tau = kn.tau(dd, delta)
				case dd > rival && !kn.same(best, i):
					rival, rivalRow = dd, i
				}
			}
			continue
		}
		st = kn.pushFarther(st, f.node, ref, rho)
	}
	kn.dists += dists
	return best, bestD, rival
}

// pushFarther pushes inner node id's live children with their upper bounds
// from ref, the lesser of the box bound and the radial bound at reach rho,
// the less promising child first, so the other pops first.
func (kn *kernel) pushFarther(st []frame, id int32, ref []float64, rho float64) []frame {
	a, b := id+1, kn.nodes[id].right
	var ua, ub float64
	if kn.nodes[a].live > 0 {
		ua = min(kn.maxDistBound(int(a), ref), kn.radial(kn.rmax[a], rho))
	}
	if kn.nodes[b].live > 0 {
		ub = min(kn.maxDistBound(int(b), ref), kn.radial(kn.rmax[b], rho))
	}
	if ua > ub || ua == ub && kn.nodes[a].first < kn.nodes[b].first {
		a, b, ua, ub = b, a, ub, ua
	}
	if kn.nodes[a].live > 0 {
		st = append(st, frame{a, ua})
	}
	if kn.nodes[b].live > 0 {
		st = append(st, frame{b, ub})
	}
	return st
}

// reach returns ρ for a query from ref: the root of ref's computed distance
// from the anchor, plus 2⁻⁵⁰⁰ for underflow. Where ref − anchor is
// Inf − Inf it returns +Inf, so radial is +Inf rather than NaN, and min
// leaves the box bound in charge.
func (kn *kernel) reach(ref []float64) float64 {
	var s float64
	for j, v := range ref {
		dd := v - kn.anchor[j]
		s += dd * dd
	}
	if math.IsNaN(s) {
		return math.Inf(1)
	}
	return math.Sqrt(s) + 0x1p-500
}

// radial bounds from above the distance sqDistTo computes from a query
// point at reach rho to any row whose rad is at most r: (r + rho)²·grow.
// By the triangle inequality through the anchor, with grow covering the
// rounding of both distances and of the bound itself; DESIGN.md, "The
// radial bound", gives the argument.
func (kn *kernel) radial(r, rho float64) float64 {
	s := r + rho
	return s * s * kn.grow
}

// same reports whether rows a and b have equal coordinates. Distances to
// any point are then bit-identical, −0 and +0 included.
func (kn *kernel) same(a, b int) bool {
	ra, rb := kn.row(a), kn.row(b)
	for j, v := range ra {
		if v != rb[j] {
			return false
		}
	}
	return true
}

// seed returns the round's first seed: the live row the reference picks,
// farthest from centroidOf over the remaining rows. It divides the running
// sums instead of re-summing, bounds by delta how far that centroid can
// lie from centroidOf's (in Euclidean norm), and asks farthestCert from
// it. The best row is the reference's when no row differing from it lies
// at or above tau; otherwise, or if any quantity is not finite, the round
// re-sums in row order (compact) and asks farthest from that centroid, as
// the reference does. DESIGN.md gives the argument.
func (kn *kernel) seed() int {
	m := float64(kn.nodes[0].live)
	g := gammaN(int(kn.nodes[0].live) - 1)
	c := kn.centroid
	var delta float64
	for j, s := range kn.sum {
		c[j] = s / m
		delta += ((1+u)*(kn.drift[j]+g*kn.absSum[j]) + 2*u*math.Abs(s)) / m
	}
	// Doubling covers the rounding of the bound's own arithmetic; the
	// constant covers underflow.
	if delta = 2*delta + 0x1p-500; delta < math.Inf(1) {
		best, bestD, rival := kn.farthestCert(c, delta)
		if bestD <= maxCertified && rival < kn.tau(bestD, delta) {
			return best
		}
	}
	kn.fallbacks++
	return kn.farthest(kn.compact())
}

// tau returns τ(bestD): a row whose computed distance from the running
// centroid lies below it gets, in the reference's arithmetic, a strictly
// smaller distance from centroidOf's centroid than the row at bestD. It is
// ((1 − 2γ_{d+2})·√bestD − 2·delta)², rounded down, or 0 when the root is
// not positive, and it never decreases as bestD grows.
func (kn *kernel) tau(bestD, delta float64) float64 {
	if t := kn.shrink*math.Sqrt(bestD) - 2*delta; t > 0 {
		return t * t
	}
	return 0
}

// gammaN returns γ_n = n·u/(1 − n·u), which bounds the relative error of n
// rounded operations (Higham, Accuracy and Stability of Numerical
// Algorithms, ch. 3).
func gammaN(n int) float64 {
	nu := float64(n) * u
	return nu / (1 - nu)
}

// nearest returns the m live rows nearest to ref, row skip excluded (−1
// excludes none), in ascending (distance, row) order. A node is skipped only
// when the heap is full and no row in the node can enter it: its lower
// bound is above the heap's worst distance, or equal to it with every row
// numbered above the worst row.
func (kn *kernel) nearest(ref []float64, skip, m int) []stats.DistIdx {
	h := &kn.near
	h.Reset(m)
	st := append(kn.stack[:0], frame{0, 0})
	for len(st) > 0 {
		f := st[len(st)-1]
		st = st[:len(st)-1]
		nd := kn.nodes[f.node]
		if h.Full() {
			if w := h.Worst(); f.bound > w.D || f.bound == w.D && int(nd.first) > w.Idx {
				continue
			}
		}
		if nd.right == 0 {
			for _, r := range kn.rows[nd.start : nd.start+nd.live] {
				if i := int(r); i != skip {
					h.Offer(stats.DistIdx{D: kn.sqDistTo(i, ref), Idx: i})
				}
			}
			continue
		}
		// Push the less promising child first, so the other pops first.
		a, b := f.node+1, nd.right
		var la, lb float64
		if kn.nodes[a].live > 0 {
			la = kn.minDistBound(int(a), ref)
		}
		if kn.nodes[b].live > 0 {
			lb = kn.minDistBound(int(b), ref)
		}
		if la < lb || la == lb && kn.nodes[a].first < kn.nodes[b].first {
			a, b, la, lb = b, a, lb, la
		}
		if kn.nodes[a].live > 0 {
			st = append(st, frame{a, la})
		}
		if kn.nodes[b].live > 0 {
			st = append(st, frame{b, lb})
		}
	}
	return h.Sorted()
}

// compact drops carved rows from remaining, keeping ascending order, and
// re-anchors the running sums to the rows left: each column added in row
// order from +0, so the returned centroid carries the bits of the
// row-slice centroidOf.
func (kn *kernel) compact() []float64 {
	rest := kn.remaining[:0]
	clear(kn.sum)
	for _, r := range kn.remaining {
		if kn.slot[r] < 0 {
			continue
		}
		rest = append(rest, r)
		for j, v := range kn.row(int(r)) {
			kn.sum[j] += v
		}
	}
	kn.remaining = rest
	m, g := float64(len(rest)), gammaN(len(rest)-1)
	for j, s := range kn.sum {
		kn.centroid[j] = s / m
		kn.drift[j] = g * kn.absSum[j]
	}
	return kn.centroid
}

// take removes the rows from the tree, then refits the leaves that lost
// their first row, their largest rad or a row on their box's boundary
// (boxes and rmax are tight, so no other row can shrink one), and their
// ancestors up to the first node that does not change. The root's box,
// first row and rmax are never read. Rows already taken are skipped.
func (kn *kernel) take(rows []int) {
	dirty := kn.dirty[:0]
	for _, i := range rows {
		if leaf, edge := kn.remove(i); edge && (len(dirty) == 0 || dirty[len(dirty)-1] != leaf) {
			dirty = append(dirty, leaf)
		}
	}
	for _, leaf := range dirty {
		path := kn.descend(kn.nodes[leaf].start)
		for p := len(path) - 1; p > 0 && kn.refit(int(path[p])); p-- {
		}
	}
	kn.dirty = dirty
}

// remove takes row i out of its leaf's live slots and out of the running
// sums, counts one row fewer on every node above it, and reports the leaf
// and whether the leaf needs a refit: it is not the root, and the row was
// its first, had its largest rad, or lay on its box's boundary.
func (kn *kernel) remove(i int) (leaf int32, edge bool) {
	s := kn.slot[i]
	if s < 0 {
		return 0, false
	}
	for j, v := range kn.row(i) {
		sum := kn.sum[j] - v
		kn.sum[j] = sum
		kn.drift[j] += u * math.Abs(sum)
	}
	for {
		nd := &kn.nodes[leaf]
		nd.live--
		if nd.right == 0 {
			break
		}
		if s < kn.nodes[nd.right].start {
			leaf++
		} else {
			leaf = nd.right
		}
	}
	last := kn.nodes[leaf].start + kn.nodes[leaf].live
	moved := kn.rows[last]
	kn.rows[s], kn.rows[last] = moved, kn.rows[s]
	kn.slot[moved] = s
	kn.slot[i] = -1
	if leaf == 0 {
		return 0, false
	}
	if int32(i) == kn.nodes[leaf].first || kn.rad[i] == kn.rmax[leaf] {
		return leaf, true
	}
	b, d := kn.nodeBox(int(leaf)), kn.d
	for j, v := range kn.row(i) {
		if v == b[j] || v == b[d+j] {
			return leaf, true
		}
	}
	return leaf, false
}

// descend returns the nodes from the root to the leaf holding slot s.
func (kn *kernel) descend(s int32) []int32 {
	path := kn.path[:0]
	for id := int32(0); ; {
		path = append(path, id)
		r := kn.nodes[id].right
		switch {
		case r == 0:
			kn.path = path
			return path
		case s < kn.nodes[r].start:
			id++
		default:
			id = r
		}
	}
}

// carve emits seed and its k−1 nearest live rows as a group, nearest first
// after the seed, and takes them out of the tree. The seed leads the group
// even when it was taken before (TestKernelSeedOutsideRemaining).
func (kn *kernel) carve(seed, k int) []int {
	start := len(kn.arena)
	kn.arena = append(kn.arena, seed)
	for _, c := range kn.nearest(kn.row(seed), seed, k-1) {
		kn.arena = append(kn.arena, c.Idx)
	}
	group := kn.arena[start:len(kn.arena):len(kn.arena)]
	kn.take(group)
	return group
}

// assign runs the MDAV group-carving loop. Each round carves a group around
// r, the row farthest from the centroid, then one around s, the row
// farthest from r among the rows the first group left; drawing s from those
// rows keeps it out of the first group even when rows coincide.
func (kn *kernel) assign(k int) [][]int {
	groups := make([][]int, 0, kn.n/k+1)
	for kn.nodes[0].live >= int32(3*k) {
		r := kn.seed()
		groups = append(groups, kn.carve(r, k))
		s := kn.farthest(kn.row(r))
		groups = append(groups, kn.carve(s, k))
	}
	if kn.nodes[0].live >= int32(2*k) {
		groups = append(groups, kn.carve(kn.seed(), k))
	}
	return kn.rest(groups)
}

// vassign runs V-MDAV (Solanas and Martínez-Ballesté, "V-MDAV: a
// multivariate microaggregation with variable group size", COMPSTAT 2006).
// Each round carves a k-group around the row farthest from the centroid,
// then extends it, up to 2k−1 rows and while more than k rows are live,
// with the live row nearest the group's centroid, unless that row's
// distance to the group is at least gamma times its distance to the nearest
// other live row.
func (kn *kernel) vassign(k int, gamma float64) [][]int {
	groups := make([][]int, 0, kn.n/k+1)
	for kn.nodes[0].live >= int32(2*k) {
		start := len(kn.arena)
		kn.carve(kn.seed(), k)
		// More than k ≥ 2 live rows: cand and other both exist.
		for len(kn.arena)-start < 2*k-1 && kn.nodes[0].live > int32(k) {
			cand := kn.nearest(kn.groupCentroid(kn.arena[start:]), -1, 1)[0]
			other := kn.nearest(kn.row(cand.Idx), cand.Idx, 1)[0]
			if cand.D >= gamma*other.D {
				break
			}
			kn.arena = append(kn.arena, cand.Idx)
			kn.take(kn.arena[len(kn.arena)-1:])
		}
		groups = append(groups, kn.arena[start:len(kn.arena):len(kn.arena)])
	}
	return kn.rest(groups)
}

// groupCentroid returns the centroid of the group's rows: each coordinate one
// sum in group order and one division, the arithmetic of the row-slice
// centroidOf. It overwrites the centroid seed computed.
func (kn *kernel) groupCentroid(group []int) []float64 {
	c := kn.centroid
	clear(c)
	for _, i := range group {
		for j, v := range kn.row(i) {
			c[j] += v
		}
	}
	for j := range c {
		c[j] /= float64(len(group))
	}
	return c
}

// rest appends the live rows, in ascending order, to groups as the last
// group.
func (kn *kernel) rest(groups [][]int) [][]int {
	if kn.nodes[0].live == 0 {
		return groups
	}
	start := len(kn.arena)
	for _, r := range kn.remaining {
		if kn.slot[r] >= 0 {
			kn.arena = append(kn.arena, int(r))
		}
	}
	return append(groups, kn.arena[start:len(kn.arena):len(kn.arena)])
}

// standardizeFlat z-scores each column of the flat buffer in place, with the
// same per-column accumulation order as the row-slice standardize.
func standardizeFlat(pts []float64, n, d int) {
	if n == 0 {
		return
	}
	for j := 0; j < d; j++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += pts[i*d+j]
		}
		mean := sum / float64(n)
		var ss float64
		for i := 0; i < n; i++ {
			dv := pts[i*d+j] - mean
			ss += dv * dv
		}
		sd := math.Sqrt(ss / float64(n))
		if sd == 0 {
			sd = 1
		}
		for i := 0; i < n; i++ {
			pts[i*d+j] = (pts[i*d+j] - mean) / sd
		}
	}
}
