package fusion

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// This file holds the baseline estimators. Each EstimateBatch consumes the
// flat row-major Matrix directly and runs its row loop chunk-parallel under
// the sweep's worker budget: per-row results depend only on the row, and
// chunked reductions are avoided entirely — so worker count can never change
// output. The row-at-a-time oracles in reference_test.go pin every bit.

// Chunk grains: rows of heavy per-row work (a full calibration scan, a
// Mamdani defuzzification) parallelize at the parallel.For floor; cheap
// streaming passes use large chunks so bookkeeping stays negligible.
const (
	heavyRowGrain = 256
	lightRowGrain = 8192
)

// Midpoint is the no-fusion adversary of Section 6.B: with the sensitive
// column suppressed, the best k-independent guess is the middle of the
// public range. (P ∘ P') in Figure 4 corresponds to this estimate.
type Midpoint struct{}

// Name implements Estimator.
func (Midpoint) Name() string { return "midpoint" }

// EstimateBatch implements Estimator: the no-fusion estimate for every row.
func (Midpoint) EstimateBatch(m Matrix, out Range, _ *parallel.Budget, _ *Arena, est []float64) error {
	if !out.valid() {
		return fmt.Errorf("fusion: empty range")
	}
	mid := out.Mid()
	for i := range est {
		est[i] = mid
	}
	return nil
}

// Rank estimates by composite rank: records are scored by the mean of their
// min-max-normalized features and the public range is spread across the
// score order. It needs no calibration data — only the public range —
// making it the weakest "real" fusion baseline.
type Rank struct{}

// Name implements Estimator.
func (Rank) Name() string { return "rank" }

// EstimateBatch implements Estimator. Each record's score adds its
// normalized features in column order, and the permutation sorts by the
// (score, index) total order, so ties rank by record index.
func (Rank) EstimateBatch(m Matrix, out Range, b *parallel.Budget, a *Arena, est []float64) error {
	if !out.valid() {
		return fmt.Errorf("fusion: empty range")
	}
	n := m.Rows
	if n == 0 {
		return errors.New("fusion: rank estimator needs at least one record")
	}
	d := m.Stride
	// Per-column affine parameters of stats.Normalize, computed with its
	// comparison order. A degenerate column normalizes to all zeros; adding
	// +0 to a score never changes its bits (scores are sums of non-negative
	// terms, so never −0), so those columns are skipped.
	lows := a.Floats(d)
	highs := a.Floats(d)
	for j := 0; j < d; j++ {
		lo, hi := m.Flat[j], m.Flat[j]
		for i := 1; i < n; i++ {
			x := m.Flat[i*d+j]
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		lows[j], highs[j] = lo, hi
	}
	scores := a.Floats(n)
	fd := float64(d)
	b.For(n, lightRowGrain, func(rlo, rhi int) {
		for i := rlo; i < rhi; i++ {
			row := m.Flat[i*d : (i+1)*d]
			var s float64
			for j, x := range row {
				if highs[j] == lows[j] {
					continue
				}
				s += ((x - lows[j]) / (highs[j] - lows[j])) / fd
			}
			scores[i] = s
		}
	})
	order := a.Ints(n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(x, y int) bool {
		i, j := order[x], order[y]
		return scores[i] < scores[j] || (scores[i] == scores[j] && i < j)
	})
	if n == 1 {
		est[0] = out.Mid()
		return nil
	}
	span := out.Hi - out.Lo
	for rank, idx := range order {
		est[idx] = out.Lo + float64(rank)/float64(n-1)*span
	}
	return nil
}

// Ensemble averages several estimators — a cautious adversary hedging
// between fusion strategies. Weights default to uniform when nil.
type Ensemble struct {
	Members []Estimator
	Weights []float64
}

// Name implements Estimator.
func (e *Ensemble) Name() string { return "ensemble" }

// EstimateBatch implements Estimator: members estimate in order, sharing
// the budget and arena, and the weighted accumulation runs member-outer.
func (e *Ensemble) EstimateBatch(m Matrix, out Range, b *parallel.Budget, a *Arena, est []float64) error {
	if len(e.Members) == 0 {
		return errors.New("fusion: ensemble has no members")
	}
	weights := e.Weights
	if weights == nil {
		weights = make([]float64, len(e.Members))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(e.Members) {
		return fmt.Errorf("fusion: ensemble has %d members and %d weights", len(e.Members), len(weights))
	}
	var totalW float64
	for _, w := range weights {
		if w < 0 {
			return fmt.Errorf("fusion: negative ensemble weight %g", w)
		}
		totalW += w
	}
	if totalW == 0 {
		return errors.New("fusion: ensemble weights sum to zero")
	}
	acc := a.Floats(m.Rows)
	sub := a.Floats(m.Rows)
	for mi, member := range e.Members {
		if err := member.EstimateBatch(m, out, b, a, sub); err != nil {
			return fmt.Errorf("fusion: ensemble member %s: %w", member.Name(), err)
		}
		w := weights[mi]
		for i, v := range sub {
			acc[i] += w * v
		}
	}
	for i := range acc {
		est[i] = stats.Clamp(acc[i]/totalW, out.Lo, out.Hi)
	}
	return nil
}

// Regression fits ordinary least squares on a leaked calibration subset —
// records whose sensitive values the adversary already knows (e.g. salaries
// disclosed in public records) — and predicts the rest.
type Regression struct {
	// CalibFeatures and CalibTargets are the adversary's labeled examples.
	CalibFeatures [][]float64
	CalibTargets  []float64
}

// Name implements Estimator.
func (*Regression) Name() string { return "regression" }

// EstimateBatch implements Estimator: the OLS fit runs on the (small)
// calibration set; only the prediction pass is chunk-parallel.
func (r *Regression) EstimateBatch(m Matrix, out Range, b *parallel.Budget, _ *Arena, est []float64) error {
	model, err := stats.FitOLS(r.CalibFeatures, r.CalibTargets)
	if err != nil {
		return fmt.Errorf("fusion: regression calibration: %w", err)
	}
	if len(model.Coef) != m.Stride {
		return fmt.Errorf("fusion: regression model has %d features, matrix has %d", len(model.Coef), m.Stride)
	}
	b.For(m.Rows, lightRowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			est[i] = stats.Clamp(model.Predict(m.Row(i)), out.Lo, out.Hi)
		}
	})
	return nil
}

// KNN averages the sensitive values of the K nearest calibration records in
// feature space. Ties in distance break by calibration index, so the chosen
// neighbourhood is a deterministic function of the data alone.
type KNN struct {
	K             int
	CalibFeatures [][]float64
	CalibTargets  []float64

	// The calibration features flattened row-major, built once, and the
	// per-worker neighbour heaps. Do not mutate CalibFeatures after the
	// first estimate.
	calibOnce sync.Once
	calibFlat []float64
	calibD    int
	calibErr  error
	heapPool  sync.Pool
}

// Name implements Estimator.
func (*KNN) Name() string { return "knn" }

// calibMatrix lazily flattens the calibration features row-major, once per
// estimator. Mutating CalibFeatures after the first call is not supported.
func (k *KNN) calibMatrix() ([]float64, int, error) {
	k.calibOnce.Do(func() {
		if len(k.CalibFeatures) == 0 {
			return // validated by the caller
		}
		k.calibD = len(k.CalibFeatures[0])
		flat := make([]float64, 0, len(k.CalibFeatures)*k.calibD)
		for c, cf := range k.CalibFeatures {
			if len(cf) != k.calibD {
				k.calibErr = fmt.Errorf("fusion: knn calibration row %d has %d features, row 0 has %d", c, len(cf), k.calibD)
				return
			}
			flat = append(flat, cf...)
		}
		k.calibFlat = flat
	})
	return k.calibFlat, k.calibD, k.calibErr
}

// EstimateBatch implements Estimator. Every query row scans the flattened
// calibration matrix, keeps the kk nearest in a bounded max-heap ordered by
// (distance, index), and sums their targets in ascending order, so each
// estimate is a pure function of the data at any worker count.
func (k *KNN) EstimateBatch(m Matrix, out Range, b *parallel.Budget, _ *Arena, est []float64) error {
	if k.K < 1 {
		return fmt.Errorf("fusion: knn needs K ≥ 1, got %d", k.K)
	}
	if len(k.CalibFeatures) != len(k.CalibTargets) || len(k.CalibFeatures) == 0 {
		return errors.New("fusion: knn calibration features and targets must be non-empty and aligned")
	}
	calib, cd, err := k.calibMatrix()
	if err != nil {
		return err
	}
	if cd != m.Stride {
		return fmt.Errorf("fusion: knn calibration rows have %d features, query has %d", cd, m.Stride)
	}
	kk := k.K
	if kk > len(k.CalibTargets) {
		kk = len(k.CalibTargets)
	}
	nc := len(k.CalibTargets)
	fkk := float64(kk)
	b.For(m.Rows, heavyRowGrain, func(lo, hi int) {
		h, _ := k.heapPool.Get().(*stats.Nearest)
		if h == nil {
			h = new(stats.Nearest)
		}
		for i := lo; i < hi; i++ {
			row := m.Flat[i*cd : (i+1)*cd]
			h.Reset(kk)
			for c := 0; c < nc; c++ {
				cf := calib[c*cd : (c+1)*cd]
				var dist float64
				for j, fv := range row {
					diff := fv - cf[j]
					dist += diff * diff
				}
				h.Offer(stats.DistIdx{D: dist, Idx: c})
			}
			var sum float64
			for _, di := range h.Sorted() {
				sum += k.CalibTargets[di.Idx]
			}
			est[i] = stats.Clamp(sum/fkk, out.Lo, out.Hi)
		}
		k.heapPool.Put(h)
	})
	return nil
}
