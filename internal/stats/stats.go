// Package stats provides the small numerical substrate shared by the fusion
// estimators, the data generator and the anonymization kernels: summaries,
// normalization and clamping, correlation, ordinary least squares and a
// bounded nearest-neighbour selection.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmpty is returned by statistics that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// MinMax returns the minimum and maximum of xs.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// Correlation returns the Pearson correlation of paired samples. Degenerate
// (zero-variance) inputs yield 0.
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: correlation of unequal lengths %d and %d", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Normalize maps xs affinely onto [0,1] using its own min and max. A
// constant slice maps to all zeros.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	lo, hi, err := MinMax(xs)
	if err != nil || hi == lo {
		return out
	}
	for i, x := range xs {
		out[i] = (x - lo) / (hi - lo)
	}
	return out
}

// Clamp restricts x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
