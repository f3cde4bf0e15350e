package core

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/metrics"
)

// This file is the decision half of Algorithm 1 — threshold calibration,
// candidate filtering and the H-objective argmax — split from the sweep
// driver so planners and services can depend on the selection semantics
// without importing the executor. Everything here is pure over a
// []LevelResult series: no sweeping, no I/O.

// Result is the outcome of a FRED run.
type Result struct {
	// Levels holds every swept level in order.
	Levels []LevelResult
	// H holds the objective per candidate level, aligned with Candidates.
	H []float64
	// Candidates indexes Levels entries that passed Tp.
	Candidates []int
	// OptimalK is the chosen anonymization level (Figure 8's argmax).
	OptimalK int
	// Hmax is the objective at OptimalK.
	Hmax float64
	// Optimal is the fusion-resilient release P'_opt.
	Optimal *dataset.Table
	// Tp and Tu are the thresholds the decision used: the caller's, or the
	// calibrated pair when both were zero.
	Tp, Tu float64
}

// ErrNoCandidate is returned when no level passes both thresholds.
var ErrNoCandidate = errors.New("core: no anonymization level satisfies the thresholds")

// StopsAfter reports whether Algorithm 1's stopping rule ends the sweep
// after this level: the prose rule stops once utility falls below Tu, the
// literal pseudocode rule ("repeat … until U_level ≥ Tu") as soon as a
// release is useful.
func (cfg Config) StopsAfter(lr LevelResult) bool {
	if cfg.LiteralPaperLoop {
		return lr.Utility >= cfg.Tu
	}
	return lr.Utility < cfg.Tu
}

// Decide applies Algorithm 1's selection to a swept series: the stopping
// rule's truncation (Config.StopsAfter), the Tp candidate filter, the
// weighted objective H over the candidates, and the argmax. When Tp and Tu
// are both zero it first calibrates them from the whole series
// (CalibrateThresholds). The truncation is a no-op on a series the sweep
// already stopped under the same thresholds, so Run is SweepStream +
// Decide, and callers that stream a sweep themselves (a CLI printing levels
// live) reach Run's exact decision without a second sweep. Decide records
// candidacy on the series in place and returns the partial Result
// alongside ErrNoCandidate when no level passes the filter. The service's
// fred-sweep job deliberately deviates: it sweeps the full requested range
// and filters candidacy by both thresholds instead of truncating at Tu
// (DecideWithin).
func Decide(levels []LevelResult, cfg Config) (*Result, error) {
	if cfg.Tp == 0 && cfg.Tu == 0 {
		var err error
		if cfg.Tp, cfg.Tu, err = CalibrateThresholds(levels); err != nil {
			return nil, err
		}
	}
	for i, lr := range levels {
		if cfg.StopsAfter(lr) {
			levels = levels[:i+1]
			break
		}
	}
	res := &Result{Levels: levels, Tp: cfg.Tp, Tu: cfg.Tu}
	for i := range res.Levels {
		res.Levels[i].Candidate = res.Levels[i].After >= cfg.Tp
		if res.Levels[i].Candidate {
			res.Candidates = append(res.Candidates, i)
		}
	}
	if len(res.Candidates) == 0 {
		return res, ErrNoCandidate
	}
	dis := make([]float64, len(res.Candidates))
	utl := make([]float64, len(res.Candidates))
	for i, li := range res.Candidates {
		dis[i] = res.Levels[li].After
		utl[i] = res.Levels[li].Utility
	}
	return decideTail(res, dis, utl, metrics.DefaultHOptions())
}

// DecideWithin applies the band variant of the selection the service's
// fred-sweep job uses: a level is a candidate only when it clears BOTH
// thresholds (After ≥ tp AND Utility ≥ tu), with no Tu truncation — the
// whole series is considered and the H argmax runs over the band. When tp
// and tu are both zero they are first calibrated from the series
// (CalibrateThresholds). Candidacy is recorded on the series in place; the
// partial Result is returned alongside ErrNoCandidate when the band is
// empty.
//
// Because H normalization (metrics.HSeries) is computed over the candidate
// arrays alone, any two series that agree on the candidate band decide
// bit-identically — the invariant the adaptive planner's scan relies on to
// skip the levels above the Tu crossing.
func DecideWithin(levels []LevelResult, tp, tu float64, opts metrics.HOptions) (*Result, error) {
	if opts.W1 == 0 && opts.W2 == 0 {
		opts = metrics.DefaultHOptions()
	}
	if tp == 0 && tu == 0 {
		var err error
		if tp, tu, err = CalibrateThresholds(levels); err != nil {
			return nil, err
		}
	}
	res := &Result{Levels: levels, Tp: tp, Tu: tu}
	var dis, utl []float64
	for i := range res.Levels {
		res.Levels[i].Candidate = res.Levels[i].After >= tp && res.Levels[i].Utility >= tu
		if res.Levels[i].Candidate {
			res.Candidates = append(res.Candidates, i)
			dis = append(dis, res.Levels[i].After)
			utl = append(utl, res.Levels[i].Utility)
		}
	}
	if len(res.Candidates) == 0 {
		return res, ErrNoCandidate
	}
	return decideTail(res, dis, utl, opts)
}

// decideTail finishes a decision once the candidate arrays are fixed: the
// weighted objective over the band, the argmax, and the optimal level.
func decideTail(res *Result, dis, utl []float64, opts metrics.HOptions) (*Result, error) {
	h, err := metrics.HSeries(dis, utl, opts)
	if err != nil {
		return nil, err
	}
	res.H = h
	best, hmax, err := metrics.ArgMax(h)
	if err != nil {
		return nil, err
	}
	opt := res.Levels[res.Candidates[best]]
	res.OptimalK = opt.K
	res.Hmax = hmax
	res.Optimal = opt.Release
	return res, nil
}

// MinCalibrationLevels is the fewest levels CalibrateThresholds accepts: a
// sweep without thresholds must run at least this many.
const MinCalibrationLevels = 3

// CheckCalibratable refuses a sweep without thresholds over the levels ks
// of a table of rows rows when it cannot reach MinCalibrationLevels levels,
// so the sweep is refused before it computes any. Only levels k ≤ rows
// count: every in-tree scheme rejects k > rows with
// dataset.ErrTooFewRecords, which ends a sweep.
func CheckCalibratable(ks []int, rows int) error {
	n := 0
	for _, k := range ks {
		if k <= rows {
			n++
		}
	}
	if n < MinCalibrationLevels {
		return fmt.Errorf("core: without thresholds, calibration needs ≥ %d levels; k = %v on %d rows reaches %d",
			MinCalibrationLevels, ks, rows, n)
	}
	return nil
}

// CalibrateThresholds derives (Tp, Tu) from a probe sweep so the solution
// space is an interior band of levels, mirroring the paper's Tp = 3.075e8,
// Tu = 0.0018 which carve k = 7..14 out of k = 2..16: Tp is the post-fusion
// dissimilarity one third into the sweep, Tu the utility five sixths in —
// thresholds set "based on experimental observations", as the paper puts it.
func CalibrateThresholds(levels []LevelResult) (tp, tu float64, err error) {
	if len(levels) < MinCalibrationLevels {
		return 0, 0, fmt.Errorf("core: calibration needs ≥ %d levels, got %d", MinCalibrationLevels, len(levels))
	}
	tp = levels[len(levels)/3].After
	tu = levels[len(levels)*5/6].Utility
	return tp, tu, nil
}
