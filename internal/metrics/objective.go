package metrics

import (
	"errors"
	"fmt"
	"math"
)

// HOptions configures the weighted protection+utility objective of Section 4:
//
//	H = W1·(P ∘ P̂) + W2·U
//
// The paper's Figure 8 plots H in [0.16, 0.32], which is only reachable if
// the two terms are brought to a common scale before weighting (the raw
// dissimilarity is ~1e8 while U is ~1e-3). Normalize controls that scaling
// (HNormalization).
type HOptions struct {
	// W1 weighs protection (dissimilarity of the adversary's estimate), W2
	// weighs utility. The paper uses W1 = W2 = 0.5.
	W1, W2 float64
	// Normalize selects the term scaling.
	Normalize HNormalization
}

// HNormalization enumerates the supported scalings of the two H terms.
type HNormalization int

const (
	// NormalizeByMax divides each term by its maximum over the sweep before
	// weighting, landing both in [0, 1]. This reproduces the magnitude of
	// the paper's Figure 8 and is the default.
	NormalizeByMax HNormalization = iota
	// NormalizeNone uses the raw values. The protection term then dominates
	// utterly; kept for the ablation bench.
	NormalizeNone
	// NormalizeMinMax affinely maps each term onto [0, 1] over the sweep.
	NormalizeMinMax
)

// String returns the normalization name.
func (n HNormalization) String() string {
	switch n {
	case NormalizeByMax:
		return "by-max"
	case NormalizeNone:
		return "none"
	case NormalizeMinMax:
		return "min-max"
	default:
		return fmt.Sprintf("HNormalization(%d)", int(n))
	}
}

// DefaultHOptions returns the paper's setting: equal weights, by-max scaling.
func DefaultHOptions() HOptions {
	return HOptions{W1: 0.5, W2: 0.5, Normalize: NormalizeByMax}
}

// ErrNoCandidates is returned when H is requested over an empty sweep.
var ErrNoCandidates = errors.New("metrics: no candidates in sweep")

// HSeries computes H_i = W1·D̃_i + W2·Ũ_i for aligned dissimilarity and
// utility series, applying the configured normalization across the series.
func HSeries(dissim, util []float64, opts HOptions) ([]float64, error) {
	if len(dissim) != len(util) {
		return nil, fmt.Errorf("metrics: H over misaligned series (%d vs %d)", len(dissim), len(util))
	}
	if len(dissim) == 0 {
		return nil, ErrNoCandidates
	}
	if opts.W1 < 0 || opts.W2 < 0 {
		return nil, fmt.Errorf("metrics: negative weights W1=%g W2=%g", opts.W1, opts.W2)
	}
	d := scale(dissim, opts.Normalize)
	u := scale(util, opts.Normalize)
	out := make([]float64, len(d))
	for i := range d {
		out[i] = opts.W1*d[i] + opts.W2*u[i]
	}
	return out, nil
}

func scale(xs []float64, n HNormalization) []float64 {
	out := make([]float64, len(xs))
	switch n {
	case NormalizeNone:
		copy(out, xs)
	case NormalizeByMax:
		var max float64
		for _, x := range xs {
			if math.Abs(x) > max {
				max = math.Abs(x)
			}
		}
		if max == 0 {
			return out
		}
		for i, x := range xs {
			out[i] = x / max
		}
	case NormalizeMinMax:
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if hi == lo {
			return out
		}
		for i, x := range xs {
			out[i] = (x - lo) / (hi - lo)
		}
	}
	return out
}

// ArgMax returns the index of the maximal value (first occurrence) and the
// value itself.
func ArgMax(xs []float64) (int, float64, error) {
	if len(xs) == 0 {
		return 0, 0, ErrNoCandidates
	}
	best, bestI := xs[0], 0
	for i, x := range xs[1:] {
		if x > best {
			best, bestI = x, i+1
		}
	}
	return bestI, best, nil
}
