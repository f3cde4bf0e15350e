package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/parallel"
)

// ErrStopSweep is the sentinel an emit callback returns to end a streaming
// sweep early without error: the levels emitted so far form the series and
// SweepStream returns nil. Any other callback error aborts the sweep and is
// returned as-is.
var ErrStopSweep = errors.New("core: stop sweep")

// StreamConfig parameterizes SweepStream. The adversary and P come from
// the SweepContext the caller passes.
type StreamConfig struct {
	// Anonymizer is Basic_Anonymization. Required.
	Anonymizer Anonymizer
	// MinK and MaxK bound the sweep (MinK ≥ 2, MaxK ≥ MinK). Levels above
	// max(MinK, rows of P) are never listed: no scheme anonymizes n rows at
	// k > n, so such a level could only end the series.
	MinK, MaxK int
	// Held is the set of levels the caller already has: levels with
	// Held[k] == true are neither evaluated nor emitted — e.g. replayed from
	// a crashed job's durable checkpoints, warm-started from another job's
	// cached sweep of the same table, or outside a k-set/stride spec's
	// requested set. Emission stays ascending and gap-free over the levels
	// that remain. The early-stop rule still anchors at MinK: a first
	// unheld level above MinK outgrowing the table ends the series cleanly
	// rather than erroring, because the lower levels are the caller's. Keys
	// outside [MinK, MaxK] are ignored; nil holds nothing.
	Held map[int]bool
	// Workers bounds level concurrency; 0 means one worker per level.
	// Whatever the worker count, levels are emitted in ascending k order.
	Workers int
	// MinParallelRows gates the parallel fan-out on a per-level work
	// estimate: when > 0 and the table has fewer rows, the sweep runs on
	// one worker with no kernel budget regardless of Workers — pool
	// goroutines and budget tokens cost more than they recover on
	// sub-millisecond levels. 0 leaves fan-out ungated (library default;
	// the service engine passes MinParallelSweepRows).
	MinParallelRows int
	// Tp is the protection threshold recorded in each LevelResult's
	// Candidate flag (0 marks every level a candidate, as in plain sweeps).
	Tp float64
}

// SweepStream is the streaming sweep executor every sweep entry point is
// built on: it evaluates levels MinK..MaxK of the caller's context sc on a
// bounded worker pool and calls emit with each LevelResult in ascending k
// order as soon as it — and every level below it — has completed. A reorder
// buffer bridges completion order and emission order, so concurrency never
// changes what the consumer observes. One worker is the same pool with one
// goroutine. The sweep's worker budget is its own, passed to every level it
// runs; sc's budget serves RunLevel, ProbeUtilities and Attack alone, so
// calls on one context share P's prepared form but never a stop.
//
// Invariants:
//
//   - Emission is k-ordered and gap-free: emit(k) happens only after every
//     level in [MinK, k] was emitted or the sweep ended. A Held set punches
//     holes: gap-free is then over the non-held levels, the caller holding
//     the rest (a crash-resumed sweep holds its checkpointed levels).
//   - Early stop: a level above MinK failing with the "k exceeds the table"
//     condition (EndsSweep) ends the series cleanly — emit never sees it and
//     SweepStream returns nil. The same condition at MinK is an error.
//   - Any other level error aborts the sweep with "core: level k=%d: …",
//     after all lower levels were emitted.
//   - emit returning ErrStopSweep ends the sweep without error; any other
//     emit error aborts the sweep and is returned verbatim. In-flight higher
//     levels are discarded either way.
//   - Cancelling ctx aborts promptly with ctx.Err(); workers stop picking up
//     new levels and nothing further is emitted. A stop or a cancel also
//     reaches the levels in flight: each checks the context between its
//     anonymize and attack phases and, once it is done, skips the attack;
//     an attack already running starts no further kernel chunk, because
//     the sweep's budget is stopped with the context, and its level is
//     discarded.
//
// emit runs on the calling goroutine; it may block (e.g. writing an HTTP
// response) without stalling more than the in-flight workers.
func SweepStream(ctx context.Context, sc *SweepContext, cfg StreamConfig, emit func(LevelResult) error) error {
	if cfg.Anonymizer == nil {
		return errors.New("core: sweep needs an anonymizer")
	}
	minK, maxK := cfg.MinK, cfg.MaxK
	if minK < 2 || maxK < minK {
		return fmt.Errorf("core: invalid sweep range [%d, %d]", minK, maxK)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The evaluation list is the range, capped at the row count, minus the
	// caller-held levels; all sizing, dispatch and reordering below runs
	// over it.
	rows := sc.p.NumRows()
	maxK = min(maxK, max(minK, rows))
	evalKs := make([]int, 0, maxK-minK+1)
	for k := minK; k <= maxK; k++ {
		if cfg.Held[k] {
			continue
		}
		evalKs = append(evalKs, k)
	}
	n := len(evalKs)
	if n == 0 {
		return nil
	}
	// The requested worker count is the sweep-wide concurrency bound, shared
	// between level-parallelism and within-level kernel parallelism through
	// one token budget: each in-flight level holds a token while it runs, so
	// spare tokens — workers beyond the remaining levels, or pool slots freed
	// at the sweep tail — are what budgeted kernels may borrow. The level
	// pool itself never needs more goroutines than levels.
	workers := SweepWorkersFor(rows, cfg.Workers, cfg.MinParallelRows)
	if workers <= 0 {
		workers = n
	}
	budget := parallel.NewBudget(workers)
	pool := min(workers, n)
	// A stop or a cancel reaches the levels in flight through the budget:
	// once the sweep's context is done, their kernels start no further
	// chunk, and runLevel discards what they left incomplete.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	context.AfterFunc(ctx, budget.Stop)

	type slot struct {
		k   int
		lr  LevelResult
		err error
	}
	var wg sync.WaitGroup

	// Dispatcher: feeds levels one at a time so a cancel (or early stop)
	// keeps workers from picking up work past the stop point.
	ks := make(chan int)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ks)
		for _, k := range evalKs {
			select {
			case ks <- k:
			case <-ctx.Done():
				return
			}
		}
	}()

	// results is buffered to the whole sweep so workers never block on send:
	// cancel() alone winds the pool down.
	results := make(chan slot, n)
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ks {
				// Each in-flight level holds one budget token — counting
				// itself against the sweep-wide worker bound — so kernel
				// helpers can only use genuinely idle capacity.
				budget.Acquire()
				lr, err := sc.runLevel(ctx, cfg.Anonymizer, k, cfg.Tp, budget)
				budget.Release()
				results <- slot{k: k, lr: lr, err: err}
			}
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
	}()

	// Reorder buffer: results arrive in completion order, levels leave in k
	// order.
	pending := make(map[int]slot, pool)
	for i := 0; i < n; {
		next := evalKs[i]
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		s, ok := pending[next]
		if !ok {
			select {
			case r := <-results:
				pending[r.k] = r
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		delete(pending, next)
		if s.err != nil {
			// The check at the top of the loop already saw any cancel that
			// made a worker abandon this level, so s.err is the level's own.
			if next > minK && EndsSweep(s.err) {
				// The anonymizer legitimately outgrew the table: the series
				// ends here rather than failing.
				return nil
			}
			return fmt.Errorf("core: level k=%d: %w", next, s.err)
		}
		if err := emit(s.lr); err != nil {
			if errors.Is(err, ErrStopSweep) {
				return nil
			}
			return err
		}
		i++
	}
	return nil
}

// MinParallelSweepRows is the per-level work gate production sweeps pass as
// StreamConfig.MinParallelRows: below it, a level completes in well under a
// millisecond and the parallel path's pool goroutines plus budget tokens
// cost more wall time than they recover (mdav@10³ measured ~65% slower at
// workers=8 than sequential on one CPU). The threshold is deliberately far
// below the 10⁴-row cell where fan-out measurably wins.
const MinParallelSweepRows = 4096

// SweepWorkersFor applies the small-cohort gate to a requested sweep worker
// count: tables with fewer than minParallelRows rows run on one worker,
// everything else keeps the request. A non-positive gate disables it.
// SweepStream sizes its pool with it, and the planner its context's budget.
func SweepWorkersFor(rows, workers, minParallelRows int) int {
	if minParallelRows > 0 && rows < minParallelRows {
		return 1
	}
	return workers
}
