package service

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/core/planner"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// This file is the fred-sweep job executor: runFREDSweep runs every
// fred-sweep through the planner (internal/core/planner) and ends in
// core.DecideWithin over the ascending series, so decisions are
// bit-identical for the same series.
//
// The selection deliberately differs from core.Run/Decide: the service
// sweeps the full requested selection (the client asked for — and receives
// — the whole series) and filters candidacy by BOTH thresholds, where
// Algorithm 1 truncates the sweep at the first level below Tu and filters
// by Tp alone. On a non-monotone utility series the two can admit different
// candidate sets.

// sweepEmitter funnels every level entering a sweep job's series through
// one bookkeeping path: the series, the WAL checkpoint, the event stream,
// metrics and traces. A job's own checkpoints join the series only (add);
// computed and warm-started levels are published too (emit).
type sweepEmitter struct {
	e        *Engine
	j        *job
	ctx      context.Context
	tenant   string
	explicit bool
	tp, tu   float64
	total    int
	// calibrate enables the running-calibration payload on level events:
	// range sweeps carry it, adaptive ones (thresholds, k-sets, strides,
	// budgets) do not.
	calibrate bool

	// levels is the series so far, kept ascending in k whatever order
	// levels arrive in: the running calibration is positional.
	levels []core.LevelResult
}

// add enters a level into the series at its k position.
func (se *sweepEmitter) add(lr core.LevelResult) {
	i := sort.Search(len(se.levels), func(i int) bool { return se.levels[i].K > lr.K })
	se.levels = slices.Insert(se.levels, i, lr)
}

// emit records and publishes one level. source is "" for computed levels,
// "warm" for level-index seeds.
func (se *sweepEmitter) emit(lr core.LevelResult, source string) {
	se.add(lr)
	ls := summarizeLevel(lr)
	ls.Candidate = se.explicit && lr.After >= se.tp && lr.Utility >= se.tu
	var cal *Calibration
	if se.calibrate {
		if tp, tu, err := core.CalibrateThresholds(se.levels); err == nil {
			cal = &Calibration{Tp: tp, Tu: tu}
		}
	}
	se.e.recordLevel(se.j, ls, cal, 0.95*float64(len(se.levels))/float64(se.total), source)
	if source == "warm" {
		se.e.metrics.plannerWarm.With(se.tenant).Inc()
		se.e.logger.DebugContext(se.ctx, "sweep level warm-started",
			"k", lr.K, "after", lr.After, "utility", lr.Utility)
		return
	}
	se.e.metrics.plannerEvaluated.With(se.tenant).Inc()
	// One trace span per computed level, timed where the work ran (core
	// measures lr.Elapsed inside RunLevel), so concurrent sweeps report true
	// per-level cost rather than emission gaps.
	se.e.tracer.Record(obs.Span{
		Job:        obs.JobID(se.ctx),
		Name:       "sweep.level",
		Start:      time.Now().Add(-lr.Elapsed),
		DurationNS: int64(lr.Elapsed),
		Attrs:      map[string]string{"k": strconv.Itoa(lr.K)},
	})
	se.e.logger.DebugContext(se.ctx, "sweep level",
		"k", lr.K, "after", lr.After, "utility", lr.Utility, "elapsed", lr.Elapsed)
}

// finishSweep is the decision tail: decide over the (ascending) series with
// the band selection (which calibrates zero thresholds), rebuild the
// optimal release if the argmax landed on a level without one (warm or
// resume-seeded), and index the series for future warm starts.
func (e *Engine) finishSweep(j *job, levels []core.LevelResult, tp, tu float64, evaluated int, partial bool) (*Result, error) {
	res, err := core.DecideWithin(levels, tp, tu, metrics.DefaultHOptions())
	if err != nil {
		return nil, err
	}
	relTable := res.Optimal
	if relTable == nil {
		// The argmax landed on a level whose release table was never
		// materialized in this run (warm-started, or seeded from a crash
		// checkpoint). Recompute it: anonymization is deterministic, so the
		// rebuilt release is byte-identical to the original.
		if relTable, err = release(j.p, anonymizerFor(j.spec.Scheme), res.OptimalK); err != nil {
			return nil, err
		}
	}
	e.levels.Put(j.levelKey, levels)
	return &Result{
		Table:     relTable,
		Levels:    summarizeLevels(res.Levels),
		OptimalK:  res.OptimalK,
		Hmax:      res.Hmax,
		Tp:        res.Tp,
		Tu:        res.Tu,
		Evaluated: evaluated,
		Partial:   partial,
	}, nil
}

// sweepLevels expands a fred-sweep spec into the levels runFREDSweep runs
// on a table of rows rows. A range is capped at max(MinK, rows) before it
// is expanded: neither scheme anonymizes n rows at k > n (the sweep would
// end there), and an uncapped max_k would expand without bound.
func (sp Spec) sweepLevels(rows int) ([]int, error) {
	return planner.Expand(sp.MinK, min(sp.MaxK, max(sp.MinK, rows)), sp.Stride, sp.KSet)
}

// checkCalibratable refuses a fred-sweep without thresholds that cannot
// reach the levels calibrating them needs: it would compute every level
// and only then fail in finishSweep.
func (sp Spec) checkCalibratable(rows int) error {
	if sp.Type != JobFREDSweep || sp.Tp != 0 || sp.Tu != 0 {
		return nil
	}
	ks, err := sp.sweepLevels(rows)
	if err != nil {
		return err
	}
	if err := core.CheckCalibratable(ks, rows); err != nil {
		return fmt.Errorf("service: fred-sweep: %w", err)
	}
	return nil
}

// runFREDSweep is Algorithm 1 as a service job, run by planner.Run. A plain
// range spec is a planner run without thresholds, which walks every level it
// does not hold through core.SweepStream in ascending k; an adaptive spec
// also hands the planner its thresholds and budget, so it may skip levels.
// Each level entering the series advances progress, is stored on the
// running job as a partial result, and is published to Engine.Stream
// subscribers. Cancellation interrupts the sweep between levels.
//
// The planner's Held set is the one way a job adopts levels it did not
// compute: levels an earlier sweep of the same (table, adversary, scheme,
// sensitive range) left in the level index, so an overlapping re-sweep
// computes only the gap, and the checkpoints a job Recover re-submitted
// starts with in Status.Levels, which win for the same k. Both round-trip
// losslessly, so the series matches an uninterrupted run bit for bit; they
// carry no Release/Phat tables, and finishSweep recomputes the one it needs.
//
// A range sweep streams in ascending k with the running calibration, warm
// levels at their k position. An adaptive one streams its warm levels
// first, then its computed levels in ascending k — the scan up to the Tu
// crossing, then any fallback walk — except a budgeted sweep without
// thresholds, which evaluates endpoints and then widest-gap midpoints. It
// publishes skip events and traces warm and skip ranges
// ("planner.warmstart", "planner.skip"). The planner's utility-only probes
// are counted (planner_levels_probed_total) but never streamed. Every sweep
// records a "planner.plan" span.
func (e *Engine) runFREDSweep(ctx context.Context, j *job) (*Result, error) {
	sp := j.spec
	st := j.snapshot()
	ks, err := sp.sweepLevels(j.p.NumRows())
	if err != nil {
		return nil, err
	}
	held := make(map[int]core.LevelResult)
	maps.Copy(held, e.levels.Get(j.levelKey, ks))
	seeded := make(map[int]bool, len(st.Levels))
	for _, ls := range st.Levels {
		held[ls.K] = core.LevelResult{
			K: ls.K, Before: ls.Before, After: ls.After,
			Gain: ls.Gain, Utility: ls.Utility, Candidate: ls.Candidate,
			AnonymizeTime: time.Duration(ls.AnonymizeNS),
			FuseTime:      time.Duration(ls.FuseNS),
			MetricsTime:   time.Duration(ls.MetricsNS),
		}
		seeded[ls.K] = true
	}
	se := &sweepEmitter{
		e: e, j: j, ctx: ctx, tenant: st.Tenant,
		// With explicit thresholds, per-level candidacy is decidable as
		// levels stream; under auto-calibration it is settled only after
		// the sweep.
		explicit: sp.Tp != 0 || sp.Tu != 0, tp: sp.Tp, tu: sp.Tu,
		total: len(ks), calibrate: !sp.adaptive(),
		levels: make([]core.LevelResult, 0, len(ks)),
	}

	// The planner adopts held levels first, ascending, then computes. A
	// range sweep parks its warm levels in warmBuf and publishes each just
	// before the first computed level above it.
	var warmBuf []core.LevelResult
	var warmSeen []int
	flushWarmBelow := func(k int) {
		for len(warmBuf) > 0 && warmBuf[0].K < k {
			se.emit(warmBuf[0], "warm")
			warmBuf = warmBuf[1:]
		}
	}
	cfg := planner.Config{
		Anonymizer:      anonymizerFor(sp.Scheme),
		Attack:          sp.attackConfig(j.aux),
		Levels:          ks,
		Workers:         e.opts.SweepWorkers,
		MinParallelRows: core.MinParallelSweepRows,
		Held:            held,
		Hooks: planner.Hooks{
			Level: func(lr core.LevelResult, warm bool) {
				switch {
				case seeded[lr.K]:
					// Already checkpointed and published before the crash.
					se.add(lr)
				case !warm:
					flushWarmBelow(lr.K)
					se.emit(lr, "")
				case sp.adaptive():
					warmSeen = append(warmSeen, lr.K)
					se.emit(lr, "warm")
				default:
					warmBuf = append(warmBuf, lr)
				}
			},
			Fallback: func(reason string) {
				e.metrics.plannerFallbacks.With(st.Tenant).Inc()
				e.logger.InfoContext(ctx, "planner fallback to exhaustive walk", "reason", reason)
				e.tracer.Record(obs.Span{
					Job: obs.JobID(ctx), Name: "planner.fallback", Start: time.Now(),
					Attrs: map[string]string{"reason": reason},
				})
			},
		},
	}
	if sp.adaptive() {
		cfg.Tp, cfg.Tu = sp.Tp, sp.Tu
		if sp.BudgetMS > 0 {
			cfg.Deadline = time.Now().Add(time.Duration(sp.BudgetMS) * time.Millisecond)
		}
	}
	out, err := planner.Run(ctx, j.p, cfg)
	if err != nil {
		return nil, err
	}
	flushWarmBelow(math.MaxInt)
	e.metrics.plannerProbed.With(st.Tenant).Add(float64(out.Probed))

	// Publish the plan's accounting: warm ranges, skip ranges, and the
	// summary span GET /v1/jobs/{id}/trace surfaces.
	for _, r := range compressKs(warmSeen) {
		e.tracer.Record(obs.Span{
			Job: obs.JobID(ctx), Name: "planner.warmstart", Start: time.Now(),
			Attrs: map[string]string{"from_k": strconv.Itoa(r[0]), "to_k": strconv.Itoa(r[1])},
		})
	}
	for _, r := range out.SkippedRanges {
		e.recordSkip(j, Skip{FromK: r.FromK, ToK: r.ToK, Reason: r.Reason})
		n := 0
		for _, k := range ks {
			if k >= r.FromK && k <= r.ToK {
				n++
			}
		}
		e.metrics.plannerSkipped.With(st.Tenant, r.Reason).Add(float64(n))
		e.tracer.Record(obs.Span{
			Job: obs.JobID(ctx), Name: "planner.skip", Start: time.Now(),
			Attrs: map[string]string{
				"from_k": strconv.Itoa(r.FromK), "to_k": strconv.Itoa(r.ToK), "reason": r.Reason,
			},
		})
		e.logger.DebugContext(ctx, "planner skipped levels",
			"from_k", r.FromK, "to_k", r.ToK, "reason", r.Reason)
	}
	e.tracer.Record(obs.Span{
		Job: obs.JobID(ctx), Name: "planner.plan", Start: time.Now(),
		Attrs: map[string]string{
			"requested":  strconv.Itoa(out.Requested),
			"evaluated":  strconv.Itoa(out.Evaluated),
			"probed":     strconv.Itoa(out.Probed),
			"warm":       strconv.Itoa(out.Warm),
			"skipped":    strconv.Itoa(out.Skipped),
			"infeasible": strconv.Itoa(out.Infeasible),
			"fallback":   strconv.FormatBool(out.Fallback),
			"partial":    strconv.FormatBool(out.Partial),
		},
	})

	return e.finishSweep(j, out.Levels, sp.Tp, sp.Tu, out.Evaluated, out.Partial)
}

// compressKs folds an ascending level list into maximal contiguous
// [from, to] runs.
func compressKs(ks []int) [][2]int {
	var out [][2]int
	for _, k := range ks {
		if n := len(out); n > 0 && out[n-1][1] == k-1 {
			out[n-1][1] = k
			continue
		}
		out = append(out, [2]int{k, k})
	}
	return out
}
