// Package planner turns FRED's exhaustive K-walk into a search. The
// exhaustive sweep (core.SweepStream over [MinK, MaxK]) evaluates O(K) full
// anonymizations even though the decision (core.DecideWithin) only depends
// on the candidate band — the levels clearing both thresholds. The utility
// series U_k = 1/C_DM(k) is monotone non-increasing in k for any cohort
// large enough that the discernibility metric's remainder-group jitter
// cannot outweigh its O(n·k) growth (empirically: every in-tree cohort
// ≥ ~400 rows, and structurally ever more so as n grows). The Tu filter
// therefore admits a prefix of the range, which ends at the Tu crossing:
// the first level with U_k < Tu.
//
// With explicit thresholds the planner scans for that crossing the way
// Algorithm 1 walks its levels: upward from the bottom on the level pool
// (core.SweepStream, one level per worker), stopping at the first level
// below Tu. The scan computes exactly the band and its crossing level, two
// at a time on two workers; everything above the crossing is provably
// non-candidate on a monotone series and is skipped. The After series, by
// contrast, is measurement-noisy in both directions at scale (the paper's
// Figure 5 trend does not survive 10⁵-row cohorts), so the planner never
// skips on the Tp filter: After is tested per level inside the band, where
// every level is evaluated anyway.
//
// Bisection survives as a check of the skip. From the crossing index the
// planner derives the indices sort.Search would probe to find it — index
// arithmetic, no evaluation — and probes the utility of each one above the
// crossing: anonymize, suppress, C_DM, no fusion attack
// (core.SweepContext.ProbeUtilities). Probe utilities never enter the
// series; they join the monotonicity check.
//
// A run builds one core.SweepContext and runs everything on it — the scan,
// the check's probes, budget walks and the fallback walk — so P's prepared
// form and the attack's aux features are built once per run.
//
// The contract with the exhaustive sweep is exact, not approximate: H
// normalization is computed over the candidate arrays alone, so as long as
// the planner evaluates every candidate the decision — optimal k, Hmax,
// the chosen release — is IEEE-754-bit-identical to the full walk.
// Utility monotonicity is verified over every level whose utility the
// planner knows (scanned, probed or warm-started); a violation triggers an
// exhaustive fallback walk of the remaining levels, restoring the full
// series. The one documented gap: a utility rise confined entirely to
// levels the planner neither evaluated nor probed is undetectable and can
// change the band — callers that cannot tolerate this submit exhaustive
// sweeps.
//
// Without thresholds or a deadline the planner is the exhaustive sweep: it
// walks every level it does not hold through core.SweepStream. The service
// runs every fred-sweep this way, so one executor serves range walks,
// adaptive specs and crash resumes alike.
//
// Beyond the scan the planner schedules three richer specs:
//
//   - k-sets and strides: evaluate an arbitrary ascending level set
//     (Expand builds one), holes held out of the gap-free stream.
//   - Held seeds: levels the caller already has — computed by another
//     sweep of the same table, or checkpointed by a crashed run of this
//     one — are adopted, not recomputed, whichever k they sit at.
//   - Wall-clock budgets: a deadline stops evaluation with a well-defined
//     partial result. With thresholds the scan stops at the deadline and
//     leaves a prefix of the band. Without them the planner evaluates
//     endpoints first and then always the midpoint of the widest
//     unevaluated gap — the point of maximum uncertainty about the series —
//     so whatever the budget allows is spread over the range rather than
//     clustered at low k.
package planner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Skip-range reasons recorded in Outcome.SkippedRanges.
const (
	// SkipBisection marks levels above the Tu crossing: the scan stopped
	// below them and bisection's probe points among them showed no utility
	// rise, so the decision cannot depend on them.
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
	// levels in ascending k — the scan, then any fallback walk above it —
	// except under a budget without thresholds, which evaluates endpoints
	// first and then widest-gap midpoints. warm distinguishes the two.
	// Utility-only probes never enter the series and never fire it.
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
	// makes the planner scan up to the Tu crossing and check the skip at
	// bisection's probe points (Tu alone drives skipping; the noisy
	// Tp/After filter is tested per level inside the band). Both zero
	// means thresholds will be auto-calibrated after the fact, which needs
	// the full series, so the planner walks every level (deadline
	// permitting).
	Tp, Tu float64
	// Workers bounds sweep concurrency exactly as StreamConfig.Workers.
	Workers int
	// MinParallelRows is StreamConfig's small-cohort gate, forwarded.
	MinParallelRows int
	// Deadline, when non-zero, bounds wall-clock: evaluation stops at the
	// deadline with Outcome.Partial set, checked as each level completes
	// and before each probe. The first level (first three under
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
	// Probed counts utility-only probes: bisection's probe points above the
	// Tu crossing, whose utilities feed the monotonicity check but never
	// enter Levels.
	Probed int
	// Warm counts Held seeds adopted instead of recomputed.
	Warm int
	// Skipped counts requested feasible levels never evaluated (above the
	// Tu crossing, or past the deadline); Infeasible counts requested
	// levels at or above the feasibility cutoff.
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
		out := slices.Compact(slices.Sorted(slices.Values(set)))
		if out[0] < 2 {
			return nil, fmt.Errorf("planner: k-set level %d below the minimal k = 2", out[0])
		}
		return out, nil
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

type runState struct {
	ctx context.Context
	cfg Config
	ks  []int
	req map[int]bool
	// sc is the run's one sweep context: the scan, the check's probes, the
	// budget walk's levels and the fallback walk all run on it, so P is
	// prepared once per run.
	sc *core.SweepContext

	known                   map[int]core.LevelResult
	evaluated, warm, probed int

	// utilKs lists, ascending, every level whose utility the run knows:
	// the series' levels and the check's probes; util maps them to U_k.
	// The monotonicity check runs over this union.
	utilKs []int
	util   map[int]float64

	// infeasibleFrom is the lowest k the anonymizer rejected with the "k
	// exceeds the table" condition; feasibility is monotone in k, so
	// everything at or above it is infeasible.
	infeasibleFrom int

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

// adopt enters a level into the series.
func (s *runState) adopt(lr core.LevelResult, warm bool) {
	s.known[lr.K] = lr
	s.noteUtility(lr.K, lr.Utility)
	if warm {
		s.warm++
	} else {
		s.evaluated++
	}
	if s.cfg.Hooks.Level != nil {
		s.cfg.Hooks.Level(lr, warm)
	}
}

// noteUtility records U_k and checks the monotonicity invariant against
// the nearest levels of known utility on either side.
func (s *runState) noteUtility(k int, u float64) {
	if _, ok := s.util[k]; ok {
		return // a probed level the fallback walk computed: the same bits
	}
	s.util[k] = u
	i := sort.SearchInts(s.utilKs, k)
	s.utilKs = slices.Insert(s.utilKs, i, k)
	if s.nonMonotone {
		return
	}
	if i > 0 && u > s.util[s.utilKs[i-1]] {
		s.nonMonotone, s.nonMonotoneAt = true, k
	}
	if i+1 < len(s.utilKs) && s.util[s.utilKs[i+1]] > u {
		s.nonMonotone, s.nonMonotoneAt = true, s.utilKs[i+1]
	}
}

// eval computes requested level index i on the run's context, with the
// context's budget, unless it is already known or infeasible. Budget walks
// use it.
func (s *runState) eval(i int) error {
	k := s.ks[i]
	if _, ok := s.known[k]; ok || k >= s.infeasibleFrom {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	lr, err := s.sc.RunLevel(s.cfg.Anonymizer, k, s.cfg.Tp)
	if err != nil {
		if core.EndsSweep(err) && i > 0 {
			s.infeasibleFrom = k
			return nil
		}
		return fmt.Errorf("planner: level k=%d: %w", k, err)
	}
	s.adopt(lr, false)
	return nil
}

// Run executes the adaptive sweep on one sweep context of p, with a
// budget of Workers tokens (MinParallelRows applied) for its probes and
// budget walks, and returns the series with its evaluation accounting.
// Decide over Outcome.Levels with core.DecideWithin, which calibrates the
// thresholds when both were left zero.
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
	workers := core.SweepWorkersFor(p.NumRows(), cfg.Workers, cfg.MinParallelRows)
	s := &runState{
		ctx:            ctx,
		cfg:            cfg,
		sc:             core.NewSweepContextParallel(p, cfg.Attack, workers),
		ks:             cfg.Levels,
		req:            make(map[int]bool, len(cfg.Levels)),
		known:          make(map[int]core.LevelResult, len(cfg.Levels)),
		util:           make(map[int]float64, len(cfg.Levels)),
		infeasibleFrom: math.MaxInt,
		minDecide:      1,
	}
	if !explicit {
		s.minDecide = core.MinCalibrationLevels
	}
	for _, k := range s.ks {
		s.req[k] = true
	}

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
		err = s.scan()
	case !cfg.Deadline.IsZero():
		err = s.budgetWalk()
	default:
		err = s.walk(math.MaxInt, nil)
	}
	if err != nil {
		return nil, err
	}

	// A detected monotonicity violation voids the skip proof: walk
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
		if err := s.walk(math.MaxInt, nil); err != nil {
			return nil, err
		}
	}

	out := &Outcome{
		Requested:      len(s.ks),
		Evaluated:      s.evaluated,
		Probed:         s.probed,
		Warm:           s.warm,
		Fallback:       fellBack,
		FallbackReason: fallbackReason,
		Partial:        s.partial,
		Levels:         make([]core.LevelResult, 0, len(s.known)),
	}
	for _, k := range s.ks {
		if lr, ok := s.known[k]; ok {
			out.Levels = append(out.Levels, lr)
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

// scan is Algorithm 1's own loop on the level pool: it walks the requested
// levels upward and stops after the first one whose utility falls below Tu
// — the Tu crossing. On a monotone utility series every level above the
// crossing fails the Tu filter too, and After cannot rescue it, so the
// scan computes exactly the candidate band and its crossing level. A held
// level below Tu is a crossing the scan need not reach: it walks only the
// levels beneath the first one. check then tests the skip.
func (s *runState) scan() error {
	c := len(s.ks)
	for i, k := range s.ks {
		if lr, ok := s.known[k]; ok && lr.Utility < s.cfg.Tu {
			c = i
			break
		}
	}
	if c > 0 {
		crossed := 0
		err := s.walk(s.ks[c-1], func(lr core.LevelResult) bool {
			if lr.Utility < s.cfg.Tu {
				crossed = lr.K
				return true
			}
			return false
		})
		if err != nil || s.partial {
			return err
		}
		if crossed != 0 {
			c = sort.SearchInts(s.ks, crossed)
		}
	}
	return s.check(c)
}

// check replays bisection for the crossing index c: it lists the indices
// sort.Search would probe for the predicate i ≥ c — index arithmetic, no
// evaluation — and probes, all at once, the utility of every probe point
// above c whose utility the run does not know. A probe's utility joins the
// monotonicity check, never the series, so a rise at a probe point
// triggers the exhaustive fallback, as it would have under bisection.
func (s *runState) check(c int) error {
	if s.nonMonotone {
		return nil // the fallback walks everything anyway
	}
	var ks []int // descending: each probe point above c lowers the next
	for lo, hi := 0, len(s.ks); lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if mid < c {
			lo = mid + 1
			continue
		}
		hi = mid
		if _, ok := s.util[s.ks[mid]]; !ok {
			ks = append(ks, s.ks[mid])
		}
	}
	if len(ks) == 0 {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if s.stopForDeadline() {
		return nil
	}
	us, errs := s.sc.ProbeUtilities(s.cfg.Anonymizer, ks)
	for i, k := range ks {
		switch {
		case core.EndsSweep(errs[i]):
			s.infeasibleFrom = min(s.infeasibleFrom, k)
		case errs[i] != nil:
			return fmt.Errorf("planner: probe k=%d: %w", k, errs[i])
		default:
			s.probed++
			s.noteUtility(k, us[i])
		}
	}
	return nil
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
		if err := s.eval(pick); err != nil {
			return err
		}
	}
}

// walk evaluates, ascending on the level pool (core.SweepStream), every
// requested feasible level up to maxK the run does not know yet; known and
// unrequested levels ride in the Held set. stop, when non-nil, ends the
// walk after the first level it reports true for, and a deadline ends it
// once a decidable prefix is known; either way the levels in flight are
// discarded. A walk that ends on its own marks the first requested level
// it did not reach as the feasibility cutoff: the stream ends early,
// cleanly, only when the anonymizer outgrows the table.
func (s *runState) walk(maxK int, stop func(core.LevelResult) bool) error {
	minK := s.ks[0]
	maxK = min(maxK, s.ks[len(s.ks)-1], s.infeasibleFrom-1)
	if maxK < minK || s.stopForDeadline() {
		return nil
	}
	held := make(map[int]bool)
	for k := minK; k <= maxK; k++ {
		if _, ok := s.known[k]; ok || !s.req[k] {
			held[k] = true
		}
	}
	stopped := false
	err := core.SweepStream(s.ctx, s.sc, core.StreamConfig{
		Anonymizer:      s.cfg.Anonymizer,
		MinK:            minK,
		MaxK:            maxK,
		Held:            held,
		Workers:         s.cfg.Workers,
		MinParallelRows: s.cfg.MinParallelRows,
		Tp:              s.cfg.Tp,
	}, func(lr core.LevelResult) error {
		s.adopt(lr, false)
		if (stop != nil && stop(lr)) || s.stopForDeadline() {
			stopped = true
			return core.ErrStopSweep
		}
		return nil
	})
	if err != nil || stopped {
		return err
	}
	for _, k := range s.ks {
		if k > maxK {
			break
		}
		if _, ok := s.known[k]; !ok {
			s.infeasibleFrom = k
			break
		}
	}
	return nil
}
