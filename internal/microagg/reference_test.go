package microagg

import (
	"math"

	"repro/internal/dataset"
)

// The row-slice formulation of MDAV and V-MDAV over [][]float64 points, by
// brute-force scans of the remaining rows. The tree kernel (kernel.go) must
// reproduce its groups row for row: TestKernelMatchesReference pins MDAV,
// TestVMDAVMatchesReference V-MDAV.

// referencePoints returns t's quasi-identifier points as row slices,
// z-scored when std is set.
func referencePoints(t *dataset.Table, std bool) [][]float64 {
	qis := t.Schema().IndicesOf(dataset.QuasiIdentifier)
	d := len(qis)
	flat := t.MatrixFlat(qis, 0)
	points := make([][]float64, t.NumRows())
	for i := range points {
		points[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	if std {
		standardize(points)
	}
	return points
}

// referenceAssign is the row-slice MDAV loop.
func referenceAssign(t *dataset.Table, k int, std bool) [][]int {
	points := referencePoints(t, std)
	remaining := make([]int, t.NumRows())
	for i := range remaining {
		remaining[i] = i
	}
	var groups [][]int
	for len(remaining) >= 3*k {
		c := centroidOf(points, remaining)
		r := farthestFrom(points, remaining, c)
		g1, rest := takeNearest(points, remaining, r, k)
		groups = append(groups, g1)
		s := farthestFrom(points, rest, points[r])
		g2, rest := takeNearest(points, rest, s, k)
		groups = append(groups, g2)
		remaining = rest
	}
	if len(remaining) >= 2*k {
		c := centroidOf(points, remaining)
		r := farthestFrom(points, remaining, c)
		g1, rest := takeNearest(points, remaining, r, k)
		groups = append(groups, g1, rest)
	} else if len(remaining) > 0 {
		groups = append(groups, remaining)
	}
	return groups
}

// referenceVAssign is the row-slice V-MDAV loop: after forming each k-group
// around the farthest record, it extends the group with records much closer
// to the group than to the remaining crowd, up to 2k−1.
func referenceVAssign(t *dataset.Table, k int, gamma float64, std bool) [][]int {
	points := referencePoints(t, std)
	remaining := make([]int, t.NumRows())
	for i := range remaining {
		remaining[i] = i
	}
	var groups [][]int
	for len(remaining) >= 2*k {
		c := centroidOf(points, remaining)
		seed := farthestFrom(points, remaining, c)
		group, rest := takeNearest(points, remaining, seed, k)
		for len(group) < 2*k-1 && len(rest) > k {
			gc := centroidOf(points, group)
			// Nearest outside candidate to the group centroid.
			cand, candD := -1, 0.0
			for _, i := range rest {
				if d := sqDist(points[i], gc); cand < 0 || d < candD {
					cand, candD = i, d
				}
			}
			// Its distance to the nearest other outside record.
			otherD := -1.0
			for _, i := range rest {
				if i == cand {
					continue
				}
				if d := sqDist(points[i], points[cand]); otherD < 0 || d < otherD {
					otherD = d
				}
			}
			if otherD < 0 || candD >= gamma*otherD {
				break
			}
			group = append(group, cand)
			rest = removeOne(rest, cand)
		}
		groups = append(groups, group)
		remaining = rest
	}
	if len(remaining) > 0 {
		groups = append(groups, remaining)
	}
	return groups
}

func removeOne(xs []int, x int) []int {
	out := xs[:0]
	for _, v := range xs {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}

func standardize(points [][]float64) {
	if len(points) == 0 {
		return
	}
	d := len(points[0])
	for j := 0; j < d; j++ {
		var sum float64
		for _, p := range points {
			sum += p[j]
		}
		mean := sum / float64(len(points))
		var ss float64
		for _, p := range points {
			dv := p[j] - mean
			ss += dv * dv
		}
		sd := math.Sqrt(ss / float64(len(points)))
		if sd == 0 {
			sd = 1
		}
		for _, p := range points {
			p[j] = (p[j] - mean) / sd
		}
	}
}

func centroidOf(points [][]float64, idx []int) []float64 {
	d := len(points[0])
	c := make([]float64, d)
	for _, i := range idx {
		for j := 0; j < d; j++ {
			c[j] += points[i][j]
		}
	}
	for j := range c {
		c[j] /= float64(len(idx))
	}
	return c
}

func sqDist(a, b []float64) float64 {
	var s float64
	for j := range a {
		d := a[j] - b[j]
		s += d * d
	}
	return s
}

// farthestFrom returns the index (into points) of the remaining record
// farthest from ref, breaking ties by lowest row index for determinism.
func farthestFrom(points [][]float64, remaining []int, ref []float64) int {
	best, bestD := remaining[0], -1.0
	for _, i := range remaining {
		if d := sqDist(points[i], ref); d > bestD {
			best, bestD = i, d
		}
	}
	return best
}

// takeNearest removes seed and its k−1 nearest neighbours from remaining,
// returning them as a group plus the leftover slice. Ties break by row index.
func takeNearest(points [][]float64, remaining []int, seed int, k int) (group, rest []int) {
	type cand struct {
		idx int
		d   float64
	}
	cands := make([]cand, 0, len(remaining))
	for _, i := range remaining {
		if i == seed {
			continue
		}
		cands = append(cands, cand{i, sqDist(points[i], points[seed])})
	}
	// Selection of the k−1 smallest, stable on (distance, index).
	for sel := 0; sel < k-1 && sel < len(cands); sel++ {
		best := sel
		for j := sel + 1; j < len(cands); j++ {
			if cands[j].d < cands[best].d || (cands[j].d == cands[best].d && cands[j].idx < cands[best].idx) {
				best = j
			}
		}
		cands[sel], cands[best] = cands[best], cands[sel]
	}
	group = []int{seed}
	for i := 0; i < k-1 && i < len(cands); i++ {
		group = append(group, cands[i].idx)
	}
	inGroup := make(map[int]bool, len(group))
	for _, i := range group {
		inGroup[i] = true
	}
	for _, i := range remaining {
		if !inGroup[i] {
			rest = append(rest, i)
		}
	}
	return group, rest
}

// referenceAggregate is Aggregate as a SetCell per cell: each group's
// centroid (or covering interval) written row by row into a clone of t.
// Aggregate, which writes each column once from per-row bounds, must give
// the same cells.
func referenceAggregate(t *dataset.Table, groups [][]int, asInterval bool) (*dataset.Table, error) {
	out := t.Clone()
	for _, c := range t.Schema().IndicesOf(dataset.QuasiIdentifier) {
		vals, present := t.FloatColumn(c)
		for _, g := range groups {
			var cell dataset.Value
			if asInterval {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, i := range g {
					if present[i] {
						lo, hi = math.Min(lo, vals[i]), math.Max(hi, vals[i])
					}
				}
				switch {
				case math.IsInf(lo, 1):
					cell = dataset.NullValue()
				case lo == hi:
					cell = dataset.Num(lo)
				default:
					cell = dataset.Span(lo, hi)
				}
			} else {
				var sum float64
				var cnt int
				for _, i := range g {
					if present[i] {
						sum += vals[i]
						cnt++
					}
				}
				cell = dataset.NullValue()
				if cnt > 0 {
					cell = dataset.Num(sum / float64(cnt))
				}
			}
			for _, i := range g {
				if err := out.SetCell(i, c, cell); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}
