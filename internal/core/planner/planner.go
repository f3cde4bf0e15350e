// Package planner turns FRED's exhaustive K-walk into a search. The
// exhaustive sweep (core.SweepStream over [MinK, MaxK]) evaluates O(K) full
// anonymizations even though the decision (core.DecideWithin) only depends
// on the candidate band — the levels clearing both thresholds. The utility
// series U_k = 1/C_DM(k) is monotone non-increasing in k for any cohort
// large enough that the discernibility metric's remainder-group jitter
// cannot outweigh its O(n·k) growth (empirically: every in-tree cohort
// ≥ ~400 rows, and structurally ever more so as n grows). The Tu filter
// therefore admits a prefix of the range, whose end — the Tu crossing —
// bisection finds in O(log K) probes; everything above it is provably
// non-candidate and is skipped, and only the prefix band is evaluated
// exhaustively. The After series, by contrast, is measurement-noisy in
// both directions at scale (the paper's Figure 5 trend does not survive
// 10⁵-row cohorts), so the planner never skips on the Tp filter: After is
// tested per level inside the band, where every level is evaluated anyway.
//
// The contract with the exhaustive sweep is exact, not approximate: H
// normalization is computed over the candidate arrays alone, so as long as
// the planner evaluates every candidate the decision — optimal k, Hmax,
// the chosen release — is IEEE-754-bit-identical to the full walk.
// Utility monotonicity is verified over every level the planner sees
// (probed, band-filled, or warm-started); a violation triggers an
// exhaustive fallback walk of the remaining levels, restoring the full
// series. The one documented gap: a utility rise confined entirely to
// levels the planner never probed is undetectable and can change the band
// — callers that cannot tolerate this submit exhaustive sweeps.
//
// Without thresholds or a deadline the planner is the exhaustive sweep: it
// walks every level it does not hold through core.SweepStream. The service
// runs every fred-sweep this way, so one executor serves range walks,
// adaptive specs and crash resumes alike.
//
// Beyond bisection the planner schedules three richer specs:
//
//   - k-sets and strides: evaluate an arbitrary ascending level set
//     (Expand builds one), holes held out of the gap-free stream.
//   - Held seeds: levels the caller already has — computed by another
//     sweep of the same table, or checkpointed by a crashed run of this
//     one — are adopted, not recomputed, whichever k they sit at.
//   - Wall-clock budgets: a deadline stops evaluation with a well-defined
//     partial result. Without thresholds the planner evaluates endpoints
//     first and then always the midpoint of the widest unevaluated gap —
//     the point of maximum uncertainty about the series — so whatever the
//     budget allows is spread over the range rather than clustered at low
//     k.
package planner

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Skip-range reasons recorded in Outcome.SkippedRanges.
const (
	// SkipBisection marks levels outside the candidate band that bisection
	// proved the decision cannot depend on.
	SkipBisection = "bisection"
	// SkipDeadline marks levels the wall-clock budget expired before
	// evaluating.
	SkipDeadline = "deadline"
	// SkipInfeasible marks levels at or above the table's feasibility
	// cutoff (k exceeds what the anonymizer can group); the exhaustive
	// sweep would not have produced them either.
	SkipInfeasible = "infeasible"
)

// Hooks observe a run as it progresses; any field may be nil.
type Hooks struct {
	// Level fires for every level entering the series, in the order the
	// planner adopts them: warm seeds first (ascending), then computed
	// levels in evaluation order. warm distinguishes the two.
	Level func(lr core.LevelResult, warm bool)
	// Fallback fires at most once, when a detected monotonicity violation
	// switches the run to the exhaustive walk.
	Fallback func(reason string)
}

// Config parameterizes an adaptive sweep.
type Config struct {
	// Anonymizer is Basic_Anonymization. Required.
	Anonymizer core.Anonymizer
	// Attack is the simulated fusion adversary.
	Attack core.AttackConfig
	// Levels is the requested level set, ascending, distinct, each ≥ 2
	// (build one with Expand). Required.
	Levels []int
	// Tp and Tu are the explicit decision thresholds. Either non-zero
	// enables bisection of the Tu crossing (Tu alone drives skipping; the
	// noisy Tp/After filter is tested per level inside the band). Both
	// zero means thresholds will be auto-calibrated after the fact, which
	// needs the full series, so the planner walks every level (deadline
	// permitting).
	Tp, Tu float64
	// Workers bounds sweep concurrency exactly as StreamConfig.Workers.
	Workers int
	// MinParallelRows is StreamConfig's small-cohort gate, forwarded.
	MinParallelRows int
	// Deadline, when non-zero, bounds wall-clock: evaluation stops at the
	// deadline with Outcome.Partial set. The first level (first three under
	// auto-calibration, so a decision is always possible) is exempt.
	Deadline time.Time
	// Held seeds levels the caller already holds — e.g. warm-started from
	// another job's cached sweep of the same table. Keyed by k; keys
	// outside Levels are ignored. Seeds are adopted verbatim: they must be
	// bit-exact prior computations of the same (table, adversary, scheme)
	// or the equivalence guarantee is void.
	Held map[int]core.LevelResult
	// Hooks observe the run.
	Hooks Hooks
	// now overrides the deadline clock in tests; nil means time.Now.
	now func() time.Time
}

// SkipRange is a maximal run of requested-but-unevaluated levels sharing a
// reason.
type SkipRange struct {
	FromK, ToK int
	Reason     string
}

// Outcome reports what a run evaluated, adopted and skipped.
type Outcome struct {
	// Levels is the ascending series of every level known at the end —
	// warm seeds and computed levels merged. Decisions run over it
	// (core.DecideWithin, which calibrates zero thresholds).
	Levels []core.LevelResult
	// Requested is len(Config.Levels).
	Requested int
	// Evaluated counts levels computed by this run.
	Evaluated int
	// Warm counts Held seeds adopted instead of recomputed.
	Warm int
	// Skipped counts requested feasible levels never evaluated (bisection
	// or deadline); Infeasible counts requested levels at or above the
	// feasibility cutoff.
	Skipped, Infeasible int
	// SkippedRanges lists the skipped and infeasible levels as maximal
	// same-reason runs, ascending.
	SkippedRanges []SkipRange
	// Fallback reports that a monotonicity violation forced the exhaustive
	// walk; FallbackReason says where.
	Fallback       bool
	FallbackReason string
	// Partial reports the deadline expired with requested levels
	// unevaluated; the series is the best obtainable within budget.
	Partial bool
}

// Expand builds the requested level list from a spec's selection: an
// explicit set wins (sorted, deduplicated); otherwise the arithmetic
// progression minK, minK+stride, … capped at maxK (stride ≤ 1 meaning every
// level). Every level must be ≥ 2.
func Expand(minK, maxK, stride int, set []int) ([]int, error) {
	if len(set) > 0 {
		out := append([]int(nil), set...)
		sort.Ints(out)
		dst := out[:1]
		for _, k := range out[1:] {
			if k != dst[len(dst)-1] {
				dst = append(dst, k)
			}
		}
		if dst[0] < 2 {
			return nil, fmt.Errorf("planner: k-set level %d below the minimal k = 2", dst[0])
		}
		return dst, nil
	}
	if minK < 2 || maxK < minK {
		return nil, fmt.Errorf("planner: invalid sweep range [%d, %d]", minK, maxK)
	}
	if stride < 1 {
		stride = 1
	}
	var out []int
	for k := minK; k <= maxK; k += stride {
		out = append(out, k)
	}
	return out, nil
}

type evalStatus int

const (
	evalOK evalStatus = iota
	evalInfeasible
)

type runState struct {
	ctx context.Context
	p   *dataset.Table
	cfg Config
	ks  []int
	req map[int]bool
	sc  *core.SweepContext

	known           map[int]core.LevelResult
	sortedK         []int
	evaluated, warm int

	// infeasibleFrom is the lowest probed k the anonymizer rejected with
	// the "k exceeds the table" condition; feasibility is monotone in k, so
	// everything at or above it is infeasible. infeasibleErr keeps the
	// original error for the case where even the lowest requested level is
	// infeasible, which must fail exactly like the exhaustive sweep.
	infeasibleFrom int
	infeasibleErr  error

	nonMonotone   bool
	nonMonotoneAt int

	// minDecide is how many known levels deadline stops must leave behind
	// so the run always ends decidable: 1 with explicit thresholds,
	// core.MinCalibrationLevels under auto-calibration.
	minDecide int
	partial   bool
}

func (s *runState) clock() time.Time {
	if s.cfg.now != nil {
		return s.cfg.now()
	}
	return time.Now()
}

// stopForDeadline reports — and records — that the budget expired, once
// enough levels are known to decide on.
func (s *runState) stopForDeadline() bool {
	if s.cfg.Deadline.IsZero() || len(s.known) < s.minDecide {
		return false
	}
	if s.clock().After(s.cfg.Deadline) {
		s.partial = true
		return true
	}
	return false
}

// adopt enters a level into the series and checks the monotonicity
// invariant against its nearest known neighbors.
func (s *runState) adopt(lr core.LevelResult, warm bool) {
	k := lr.K
	s.known[k] = lr
	i := sort.SearchInts(s.sortedK, k)
	s.sortedK = append(s.sortedK, 0)
	copy(s.sortedK[i+1:], s.sortedK[i:])
	s.sortedK[i] = k
	if !s.nonMonotone {
		if i > 0 && lr.Utility > s.known[s.sortedK[i-1]].Utility {
			s.nonMonotone, s.nonMonotoneAt = true, k
		}
		if i+1 < len(s.sortedK) && s.known[s.sortedK[i+1]].Utility > lr.Utility {
			s.nonMonotone, s.nonMonotoneAt = true, s.sortedK[i+1]
		}
	}
	if warm {
		s.warm++
	} else {
		s.evaluated++
	}
	if s.cfg.Hooks.Level != nil {
		s.cfg.Hooks.Level(lr, warm)
	}
}

// eval computes requested level index i unless it is already known or
// infeasible. Memoized: bisection probes the same midpoints from both
// boundary searches for free.
func (s *runState) eval(i int) (evalStatus, error) {
	k := s.ks[i]
	if k >= s.infeasibleFrom {
		return evalInfeasible, nil
	}
	if _, ok := s.known[k]; ok {
		return evalOK, nil
	}
	if err := s.ctx.Err(); err != nil {
		return 0, err
	}
	lr, err := s.sc.RunLevel(s.cfg.Anonymizer, k, s.cfg.Tp)
	if err != nil {
		if core.EndsSweep(err) {
			s.infeasibleFrom, s.infeasibleErr = k, err
			return evalInfeasible, nil
		}
		return 0, fmt.Errorf("planner: level k=%d: %w", k, err)
	}
	s.adopt(lr, false)
	return evalOK, nil
}

// Run executes the adaptive sweep and returns the series with its
// evaluation accounting. Decide over Outcome.Levels with
// core.DecideWithin, which calibrates the thresholds when both were left
// zero.
func Run(ctx context.Context, p *dataset.Table, cfg Config) (*Outcome, error) {
	if cfg.Anonymizer == nil {
		return nil, errors.New("planner: config needs an anonymizer")
	}
	if p == nil || p.NumRows() == 0 {
		return nil, errors.New("planner: empty private table")
	}
	if len(cfg.Levels) == 0 {
		return nil, errors.New("planner: empty level set")
	}
	for i, k := range cfg.Levels {
		if k < 2 {
			return nil, fmt.Errorf("planner: level %d below the minimal k = 2", k)
		}
		if i > 0 && k <= cfg.Levels[i-1] {
			return nil, fmt.Errorf("planner: level set not ascending at %d", k)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}

	explicit := cfg.Tp != 0 || cfg.Tu != 0
	s := &runState{
		ctx:            ctx,
		p:              p,
		cfg:            cfg,
		ks:             cfg.Levels,
		req:            make(map[int]bool, len(cfg.Levels)),
		known:          make(map[int]core.LevelResult, len(cfg.Levels)),
		infeasibleFrom: 1 << 62,
		minDecide:      1,
	}
	if !explicit {
		s.minDecide = core.MinCalibrationLevels
	}
	for _, k := range s.ks {
		s.req[k] = true
	}
	// One kernel-budgeted context shared by every single-level probe, so
	// bisection keeps within-level parallelism. The walk paths go through
	// SweepStream, which builds its own context and budget.
	s.sc = core.NewSweepContextParallel(p, cfg.Attack,
		core.SweepWorkersFor(p.NumRows(), cfg.Workers, cfg.MinParallelRows))

	// Warm seeds enter first, ascending, before anything is computed.
	for _, k := range s.ks {
		if lr, ok := cfg.Held[k]; ok {
			lr.K = k
			s.adopt(lr, true)
		}
	}

	var err error
	switch {
	case explicit:
		err = s.bisect()
	case !cfg.Deadline.IsZero():
		err = s.budgetWalk()
	default:
		err = s.walkRemaining()
	}
	if err != nil {
		return nil, err
	}

	// A detected monotonicity violation voids bisection's skip proof: walk
	// everything still missing so the series — and therefore the decision —
	// matches the exhaustive sweep exactly. A deadline overrides: the
	// partial series stands, best-effort by construction.
	var fellBack bool
	var fallbackReason string
	if s.nonMonotone && !s.partial && len(s.known) < len(s.feasibleKs()) {
		fellBack = true
		fallbackReason = fmt.Sprintf("non-monotone series at k=%d", s.nonMonotoneAt)
		if cfg.Hooks.Fallback != nil {
			cfg.Hooks.Fallback(fallbackReason)
		}
		if err := s.walkRemaining(); err != nil {
			return nil, err
		}
	}

	// The lowest requested level being infeasible is an error, exactly as
	// it is for the exhaustive sweep (the early-stop rule anchors there).
	if s.infeasibleFrom <= s.ks[0] {
		return nil, fmt.Errorf("planner: level k=%d: %w", s.ks[0], s.infeasibleErr)
	}

	out := &Outcome{
		Requested:      len(s.ks),
		Evaluated:      s.evaluated,
		Warm:           s.warm,
		Fallback:       fellBack,
		FallbackReason: fallbackReason,
		Partial:        s.partial,
	}
	out.Levels = make([]core.LevelResult, 0, len(s.sortedK))
	for _, k := range s.sortedK {
		out.Levels = append(out.Levels, s.known[k])
	}
	for _, k := range s.ks {
		if _, ok := s.known[k]; ok {
			continue
		}
		reason := SkipBisection
		switch {
		case k >= s.infeasibleFrom:
			reason = SkipInfeasible
			out.Infeasible++
		case s.partial:
			reason = SkipDeadline
			out.Skipped++
		default:
			out.Skipped++
		}
		if n := len(out.SkippedRanges); n > 0 && out.SkippedRanges[n-1].Reason == reason && out.SkippedRanges[n-1].ToK == prevRequested(s.ks, k) {
			out.SkippedRanges[n-1].ToK = k
		} else {
			out.SkippedRanges = append(out.SkippedRanges, SkipRange{FromK: k, ToK: k, Reason: reason})
		}
	}
	return out, nil
}

// prevRequested returns the requested level immediately below k, or k when
// k is the first (ks is ascending and contains k).
func prevRequested(ks []int, k int) int {
	i := sort.SearchInts(ks, k)
	if i == 0 {
		return k
	}
	return ks[i-1]
}

// feasibleKs returns the requested levels below the feasibility cutoff.
func (s *runState) feasibleKs() []int {
	n := sort.SearchInts(s.ks, s.infeasibleFrom)
	return s.ks[:n]
}

// bisect finds the Tu crossing with one memoized binary search and
// evaluates only the band below it. The predicate leans on utility
// monotonicity: Utility is non-increasing in k, so "Utility < Tu" is
// suffix-true over the requested indices, and infeasibility is suffix-true
// structurally. Every level above the crossing fails the Tu filter — After
// cannot rescue it — so skipping it provably preserves the candidate set;
// levels inside the band are all evaluated, which is also where the noisy
// Tp/After filter gets tested per level. Probe count is ≤ ⌈log₂ K⌉, total
// evaluations ≤ ⌈log₂ K⌉ + band.
func (s *runState) bisect() error {
	n := len(s.ks)
	bEnd, stopped, err := s.search(n, func(i int) (bool, error) {
		st, err := s.eval(i)
		if err != nil || st == evalInfeasible {
			return st == evalInfeasible, err
		}
		return s.known[s.ks[i]].Utility < s.cfg.Tu, nil
	})
	if err != nil || stopped {
		return err
	}
	// Band fill: every requested level below the crossing joins the series
	// — the argmax needs them all.
	for i := 0; i < bEnd; i++ {
		if s.stopForDeadline() {
			return nil
		}
		if _, err := s.eval(i); err != nil {
			return err
		}
	}
	return nil
}

// search is sort.Search with error propagation and deadline stops: the
// smallest index in [0, n] with pred true (pred suffix-true).
func (s *runState) search(n int, pred func(int) (bool, error)) (idx int, stopped bool, err error) {
	lo, hi := 0, n
	for lo < hi {
		if s.stopForDeadline() {
			return lo, true, nil
		}
		mid := int(uint(lo+hi) >> 1)
		ok, err := pred(mid)
		if err != nil {
			return 0, false, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, false, nil
}

// budgetWalk evaluates the requested set without thresholds under a
// deadline: endpoints first, then always the midpoint of the widest gap
// between levels already settled — maximum-uncertainty-first, so a partial
// series spans the whole range instead of its low end.
func (s *runState) budgetWalk() error {
	n := len(s.ks)
	done := func(i int) bool {
		if s.ks[i] >= s.infeasibleFrom {
			return true
		}
		_, ok := s.known[s.ks[i]]
		return ok
	}
	for {
		pick := -1
		switch {
		case !done(0):
			pick = 0
		case !done(n - 1):
			pick = n - 1
		default:
			// Widest gap between consecutive settled indices; ties go to
			// the lower gap for determinism.
			widest := 1
			prev := 0
			for i := 1; i < n; i++ {
				if !done(i) {
					continue
				}
				if i-prev > widest {
					widest, pick = i-prev, prev+(i-prev)/2
				}
				prev = i
			}
		}
		if pick < 0 {
			return nil
		}
		if s.stopForDeadline() {
			return nil
		}
		if _, err := s.eval(pick); err != nil {
			return err
		}
	}
}

// walkRemaining evaluates every requested feasible level not yet known via
// the parallel streaming sweep — the exhaustive mode (auto-calibration
// needs the full series) and the non-monotone fallback. Known levels and
// non-requested holes ride in the Held set.
func (s *runState) walkRemaining() error {
	minK := s.ks[0]
	maxK := s.ks[len(s.ks)-1]
	if s.infeasibleFrom <= maxK {
		maxK = s.infeasibleFrom - 1
	}
	if maxK < minK {
		return nil
	}
	held := make(map[int]bool)
	for k := minK; k <= maxK; k++ {
		if !s.req[k] {
			held[k] = true
			continue
		}
		if _, ok := s.known[k]; ok {
			held[k] = true
		}
	}
	runCtx := s.ctx
	if !s.cfg.Deadline.IsZero() {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithDeadline(s.ctx, s.cfg.Deadline)
		defer cancel()
	}
	err := core.SweepStream(runCtx, s.p, core.StreamConfig{
		Anonymizer:      s.cfg.Anonymizer,
		Attack:          s.cfg.Attack,
		MinK:            minK,
		MaxK:            maxK,
		Held:            held,
		Workers:         s.cfg.Workers,
		MinParallelRows: s.cfg.MinParallelRows,
		Tp:              s.cfg.Tp,
	}, func(lr core.LevelResult) error {
		s.adopt(lr, false)
		return nil
	})
	if err != nil {
		// The deadline expiring mid-walk is a partial result, not an
		// error — unless the caller's own context is what fired.
		if errors.Is(err, context.DeadlineExceeded) && s.ctx.Err() == nil {
			s.partial = true
			return nil
		}
		return err
	}
	// The stream ends early — cleanly — when the anonymizer outgrows the
	// table, so after a complete walk any requested level still unknown
	// marks the feasibility cutoff.
	for _, k := range s.ks {
		if k >= s.infeasibleFrom {
			break
		}
		if _, ok := s.known[k]; !ok {
			s.infeasibleFrom = k
			s.infeasibleErr = fmt.Errorf("%w", dataset.ErrTooFewRecords)
			break
		}
	}
	return nil
}
