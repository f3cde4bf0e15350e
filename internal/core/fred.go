// Package core implements the paper's primary contribution: the Web-Based
// Information-Fusion Attack simulation (Section 3) and FRED Anonymization —
// Fusion Resilient Enterprise Data Anonymization, Algorithm 1 (Section 5).
//
// FRED sweeps anonymization levels, simulates the fusion attack at each
// level, filters candidates by the protection threshold Tp, stops when
// release utility drops below Tu, and returns the level maximizing the
// weighted objective H = W1·(P ∘ P̂) + W2·U.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/metrics"
	"repro/internal/parallel"
)

// Anonymizer is the Basic_Anonymization contract of Algorithm 1: any
// k-anonymization scheme (internal/microagg, internal/kanon,
// internal/mondrian all satisfy it).
type Anonymizer interface {
	Name() string
	Anonymize(t *dataset.Table, k int) (*dataset.Table, error)
}

// ParallelAnonymizer is the interface of schemes with a budgeted path,
// whose output must equal Anonymize's at every budget. No sweep dispatches
// on it (sweeps use Preparer); it stays declared for callers outside this
// module that assert it.
type ParallelAnonymizer interface {
	Anonymizer
	AnonymizeParallel(t *dataset.Table, k int, b *parallel.Budget) (*dataset.Table, error)
}

// Preparer is the optional extension schemes implement when part of their
// work on a table does not depend on k. Prepare does that part once,
// borrowing spare workers from b, and returns the function that anonymizes
// t at any level k from it, borrowing spare workers from its own budget
// argument. The contract is strict: each call must equal Anonymize(t, k)
// bit for bit, errors included, at every budget, and calls may run
// concurrently. A SweepContext prepares P once per Preparer and runs every
// level through the result, so the sweep's levels share the work (mondrian:
// P's sorted columns; MDAV: P's standardized points, its k-d tree and the
// rows' radial bounds). Preparers are compared as map keys, so their
// dynamic types must be comparable (pointers are).
type Preparer interface {
	Anonymizer
	Prepare(t *dataset.Table, b *parallel.Budget) func(k int, b *parallel.Budget) (*dataset.Table, error)
}

// AttackConfig describes the simulated adversary.
type AttackConfig struct {
	// Aux is the web-gathered auxiliary table Q, row-aligned with P (build
	// it with web.Gather over the release identifiers). Nil simulates an
	// adversary without web access.
	Aux *dataset.Table
	// Estimator is the fusion system F; nil defaults to the paper's fuzzy
	// system.
	Estimator fusion.Estimator
	// SensitiveRange is the publicly known range of the sensitive
	// attribute.
	SensitiveRange fusion.Range
}

// Config parameterizes a FRED run.
type Config struct {
	// Anonymizer is Basic_Anonymization. Required.
	Anonymizer Anonymizer
	// Attack is the simulated fusion adversary. Required.
	Attack AttackConfig
	// Tp is the protection threshold: a level is a candidate only if
	// (P ∘ P̂) ≥ Tp. Tp and Tu both zero calibrate the pair from the swept
	// series (CalibrateThresholds).
	Tp float64
	// Tu is the utility threshold: the sweep stops when U_k < Tu.
	Tu float64
	// MinK is the first anonymization level; 0 means the paper's minimal
	// k = 2.
	MinK int
	// MaxK caps the sweep; 0 means "until utility falls below Tu or the
	// anonymizer runs out of records".
	MaxK int
	// LiteralPaperLoop reproduces the pseudocode's literal stopping rule
	// ("repeat … until U_level ≥ Tu"), which halts as soon as a release is
	// useful — almost certainly a typo for the prose rule. Users reach it
	// through fred sweep -literal-loop, whose output two cmd/fred goldens
	// pin; the ablation bench compares it with the prose rule (DESIGN.md,
	// "Ablation: the literal paper loop").
	LiteralPaperLoop bool
}

// LevelResult records one sweep iteration — one point on each of the
// paper's Figures 4–8.
type LevelResult struct {
	K int
	// Release is P'_k with the sensitive column suppressed.
	Release *dataset.Table
	// Phat is the adversary's fused estimate P̂_k.
	Phat *dataset.Table
	// Before is (P ∘ P') — the pre-fusion dissimilarity of Figure 4.
	Before float64
	// After is (P ∘ P̂) — the post-fusion dissimilarity of Figure 5.
	After float64
	// Gain is G = Before − After (Figure 6).
	Gain float64
	// Utility is U_k = 1/C_DM(k) (Figure 7).
	Utility float64
	// Candidate reports After ≥ Tp.
	Candidate bool
	// Elapsed is the level's compute time (anonymize + attack + utility),
	// measured where the work runs so concurrent sweeps report true
	// per-level cost, not pipeline emission gaps. Purely observational — it
	// never feeds back into the sweep numerics.
	Elapsed time.Duration
	// AnonymizeTime, FuseTime and MetricsTime break Elapsed into its three
	// phases: anonymization (including the suppressed projection), the
	// fusion attack with both dissimilarities, and the utility metric.
	AnonymizeTime time.Duration
	FuseTime      time.Duration
	MetricsTime   time.Duration
}

// Attack simulates the Web-Based Information-Fusion Attack against one
// release: it fuses the release with the auxiliary data and reports the
// adversary's estimate and its dissimilarity from the truth.
//
// The returned before/after pair quantifies the information gain of
// Section 6.B: before is the no-fusion (midpoint) estimate's dissimilarity,
// after the fused estimate's.
//
// Attack is the one-shot form; sweeps build a SweepContext once and reuse
// its precomputed invariants at every level.
func Attack(p, release *dataset.Table, atk AttackConfig) (phat *dataset.Table, before, after float64, err error) {
	return NewSweepContext(p, atk).Attack(release)
}

// SweepContext precomputes everything about a (P, adversary) pair that is
// invariant across anonymization levels: the comparison columns of
// Definition 1, P's column vectors, the aux-side fusion feature columns, the
// Midpoint estimator's baseline inputs, and P's prepared form for each
// Preparer anonymizer. Run, Sweep and SweepParallel build one context per
// sweep, and the planner one per run, which its scan, probes and walks all
// share; each level then only pays for the work that actually depends on k.
// A context is safe for concurrent use. Its fields are fixed at
// construction, with two exceptions that change under their own
// synchronization: per-level mutable state lives in pooled levelScratch
// values, one checked out per level, and P's prepared form for each
// Preparer is built by the first level or probe that needs it, under a
// lock, and only read after that.
type SweepContext struct {
	p   *dataset.Table
	atk AttackConfig
	est fusion.Estimator
	// budget is the worker budget of RunLevel, ProbeUtilities and Attack,
	// set only by NewSweepContextParallel; nil runs them inline. SweepStream
	// passes a budget of its own down each level instead.
	budget *parallel.Budget
	// cols names the compared attributes; colIdx are their schema indices
	// (identical in P and any release, which share the schema).
	cols   []string
	colIdx []int
	// pVecs holds P's comparison columns read at def = SensitiveRange.Mid().
	pVecs [][]float64
	// midVec is the no-fusion baseline estimate: one midpoint per record.
	midVec []float64
	// aux is the precomputed aux-side half of the fusion features.
	aux *fusion.AuxFeatures
	// err records a compared column of P holding a non-finite value; attack
	// returns it, so every level and Attack fail instead of reporting NaN
	// dissimilarities.
	err error
	// scratch pools per-level working state (the fusion arena, the grouper,
	// the comparison vectors) so a sweep's steady-state levels allocate next
	// to nothing. Each level checks one levelScratch out for its whole
	// duration.
	scratch sync.Pool
	// prepared maps each Preparer the context has run to the level
	// function of P's prepared form; prepMu guards it.
	prepMu   sync.Mutex
	prepared map[Preparer]func(k int, b *parallel.Budget) (*dataset.Table, error)
}

// levelScratch is the reusable working state of one level evaluation: the
// fusion arena backing the feature matrix, imputation buffers and estimate
// slices; the grouper behind the discernibility metric; and the release-side
// comparison vectors of the dissimilarity step.
type levelScratch struct {
	arena   fusion.Arena
	grouper dataset.Grouper
	relVecs [][]float64
}

func (sc *SweepContext) getScratch() *levelScratch {
	if ls, ok := sc.scratch.Get().(*levelScratch); ok {
		return ls
	}
	return &levelScratch{}
}

func (sc *SweepContext) putScratch(ls *levelScratch) { sc.scratch.Put(ls) }

// NewSweepContext prepares the per-sweep invariants of the fusion attack
// against p. A NaN or ±Inf in one of P's compared columns is kept as the
// context's error, which every attack through the context returns.
func NewSweepContext(p *dataset.Table, atk AttackConfig) *SweepContext {
	est := atk.Estimator
	if est == nil {
		est = fusion.NewFuzzy()
	}
	sc := &SweepContext{p: p, atk: atk, est: est, cols: comparisonColumns(p)}
	mid := atk.SensitiveRange.Mid()
	sc.colIdx = make([]int, len(sc.cols))
	sc.pVecs = make([][]float64, len(sc.cols))
	for j, name := range sc.cols {
		sc.colIdx[j] = p.Schema().MustLookup(name)
		sc.pVecs[j] = p.ColumnFloats(sc.colIdx[j], mid)
		for r, v := range sc.pVecs[j] {
			if sc.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				sc.err = fmt.Errorf("core: compared column %q has a non-finite value (NaN or ±Inf) in row %d", name, r)
			}
		}
	}
	sc.midVec = make([]float64, p.NumRows())
	for i := range sc.midVec {
		sc.midVec[i] = mid
	}
	sc.aux = fusion.PrepareAux(atk.Aux)
	return sc
}

// NewSweepContextParallel is NewSweepContext with a worker budget attached:
// budgeted kernels inside RunLevel, ProbeUtilities and Attack may use up to
// workers tokens; workers ≤ 1 attaches no budget and kernels run inline.
// The adaptive planner runs every level of a run on one such context: its
// scan and fallback walk through SweepStream, which brings its own budget,
// and its probes and budget walks on this one.
func NewSweepContextParallel(p *dataset.Table, atk AttackConfig, workers int) *SweepContext {
	sc := NewSweepContext(p, atk)
	sc.budget = parallel.NewBudget(workers)
	return sc
}

// Attack runs the fusion attack of the context's adversary against one
// release, exactly as the package-level Attack does.
func (sc *SweepContext) Attack(release *dataset.Table) (phat *dataset.Table, before, after float64, err error) {
	ls := sc.getScratch()
	defer sc.putScratch(ls)
	return sc.attack(release, ls, sc.budget)
}

// attack is Attack with the level's scratch checked out by the caller and
// its kernels on budget b. All transient fusion state (feature matrix,
// imputation buffers, estimates, comparison vectors) comes out of
// ls.arena, which is reset here — callers must not hold arena-backed
// slices across attack calls.
func (sc *SweepContext) attack(release *dataset.Table, ls *levelScratch, b *parallel.Budget) (phat *dataset.Table, before, after float64, err error) {
	if sc.err != nil {
		return nil, 0, 0, sc.err
	}
	p := sc.p
	if p.NumRows() != release.NumRows() {
		return nil, 0, 0, fmt.Errorf("core: private data has %d rows, release has %d", p.NumRows(), release.NumRows())
	}
	// Resolve the comparison columns in the release. Sweeps hand back P's
	// own schema, so the precomputed indices apply; a caller-supplied
	// release with a different layout is resolved (and validated) by name.
	relIdx := sc.colIdx
	if release.Schema() != p.Schema() && !release.Schema().Equal(p.Schema()) {
		relIdx = make([]int, len(sc.cols))
		for j, name := range sc.cols {
			idx, err := release.Schema().Lookup(name)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("core: release: %w", err)
			}
			relIdx[j] = idx
		}
	}
	// Pre-fusion: the adversary holds only the release with its sensitive
	// column forced to the public-range midpoint. CanFuse reproduces
	// FuseWith's validation without building the baseline table.
	if err := fusion.CanFuse(release, sc.atk.SensitiveRange); err != nil {
		return nil, 0, 0, fmt.Errorf("core: pre-fusion baseline: %w", err)
	}
	ls.arena.Reset()
	phat, err = fusion.FuseWith(release, sc.aux, sc.est, sc.atk.SensitiveRange, b, &ls.arena)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: fusion attack: %w", err)
	}
	mid := sc.atk.SensitiveRange.Mid()
	n := p.NumRows()
	if cap(ls.relVecs) < len(sc.cols) {
		ls.relVecs = make([][]float64, len(sc.cols))
	}
	relVecs := ls.relVecs[:len(sc.cols)]
	sensPos := -1
	for j, idx := range relIdx {
		if release.Schema().Column(idx).Class == dataset.Sensitive {
			// The baseline estimate is the constant midpoint, whatever the
			// release publishes in the sensitive column.
			relVecs[j] = sc.midVec
			sensPos = j
		} else {
			relVecs[j] = release.AppendColumnFloats(ls.arena.Floats(n)[:0], idx, mid)
		}
	}
	before, err = metrics.ColumnDissimilarity(sc.pVecs, relVecs, p.NumRows())
	if err != nil {
		return nil, 0, 0, err
	}
	// P̂ shares every column with the release except the estimated sensitive
	// one; swap just that vector for the after-fusion comparison.
	if sensPos >= 0 {
		relVecs[sensPos] = phat.AppendColumnFloats(ls.arena.Floats(n)[:0], relIdx[sensPos], mid)
	}
	after, err = metrics.ColumnDissimilarity(sc.pVecs, relVecs, p.NumRows())
	if err != nil {
		return nil, 0, 0, err
	}
	return phat, before, after, nil
}

// RunLevel anonymizes P at level k, projects the release (sensitive columns
// suppressed, zero-copy), attacks it and measures utility — one sweep
// iteration, on the context's budget.
func (sc *SweepContext) RunLevel(anon Anonymizer, k int, tp float64) (LevelResult, error) {
	return sc.runLevel(context.Background(), anon, k, tp, sc.budget)
}

// runLevel is RunLevel for the sweep pool, on the sweep's budget b: it
// returns ctx.Err() between the anonymize and attack phases, so a level
// dispatched past a stop, or one of a cancelled sweep, skips its attack,
// and again after the attack, whose kernels a stop or a cancel cuts short
// through b.
func (sc *SweepContext) runLevel(ctx context.Context, anon Anonymizer, k int, tp float64, b *parallel.Budget) (LevelResult, error) {
	start := time.Now()
	release, err := sc.release(anon, k, b)
	if err != nil {
		return LevelResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return LevelResult{}, err
	}
	anonDone := time.Now()
	ls := sc.getScratch()
	defer sc.putScratch(ls)
	phat, before, after, err := sc.attack(release, ls, b)
	if ctxErr := ctx.Err(); ctxErr != nil {
		return LevelResult{}, ctxErr
	}
	if err != nil {
		return LevelResult{}, err
	}
	fuseDone := time.Now()
	util, err := metrics.UtilityWith(release, k, &ls.grouper)
	if err != nil {
		return LevelResult{}, err
	}
	end := time.Now()
	return LevelResult{
		K:             k,
		Release:       release,
		Phat:          phat,
		Before:        before,
		After:         after,
		Gain:          metrics.InformationGain(before, after),
		Utility:       util,
		Candidate:     after >= tp,
		Elapsed:       end.Sub(start),
		AnonymizeTime: anonDone.Sub(start),
		FuseTime:      fuseDone.Sub(anonDone),
		MetricsTime:   end.Sub(fuseDone),
	}, nil
}

// ProbeUtilities is the utility half of RunLevel for the levels ks: it
// anonymizes P at each k exactly as RunLevel does and returns U_k — bit for
// bit RunLevel's Utility — without the fusion attack. The adaptive planner
// checks its scan with such probes. The levels run concurrently, each
// holding one of the context's worker tokens as a sweep level does, so
// their kernels borrow only the tokens the probes leave idle; without a
// budget they run one after another. errs[i] is level ks[i]'s failure.
func (sc *SweepContext) ProbeUtilities(anon Anonymizer, ks []int) (us []float64, errs []error) {
	us, errs = make([]float64, len(ks)), make([]error, len(ks))
	probe := func(i int) {
		release, err := sc.release(anon, ks[i], sc.budget)
		if err == nil {
			ls := sc.getScratch()
			us[i], err = metrics.UtilityWith(release, ks[i], &ls.grouper)
			sc.putScratch(ls)
		}
		errs[i] = err
	}
	if sc.budget == nil {
		for i := range ks {
			probe(i)
		}
		return us, errs
	}
	var wg sync.WaitGroup
	for i := range ks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc.budget.Acquire()
			defer sc.budget.Release()
			probe(i)
		}()
	}
	wg.Wait()
	return us, errs
}

// release anonymizes P at level k on budget b and projects the release
// with its sensitive columns suppressed (zero-copy): the anonymize step
// RunLevel and ProbeUtilities share.
func (sc *SweepContext) release(anon Anonymizer, k int, b *parallel.Budget) (*dataset.Table, error) {
	anonT, err := sc.anonymize(anon, k, b)
	if err != nil {
		return nil, err
	}
	return anonT.WithSuppressed(anonT.Schema().IndicesOf(dataset.Sensitive)...), nil
}

// anonymize runs anon on P at level k on budget b, through P's prepared
// form when anon is a Preparer: the first level to need that form builds
// it on its own budget, holding the lock, so concurrent levels wait for it
// instead of preparing twice. The form outlives that budget and its stop:
// Prepare may borrow workers only through TryAcquire, which a stop does not
// cut short, so the form is always whole.
func (sc *SweepContext) anonymize(anon Anonymizer, k int, b *parallel.Budget) (*dataset.Table, error) {
	pr, ok := anon.(Preparer)
	if !ok {
		return anon.Anonymize(sc.p, k)
	}
	sc.prepMu.Lock()
	level := sc.prepared[pr]
	if level == nil {
		level = pr.Prepare(sc.p, b)
		if sc.prepared == nil {
			sc.prepared = make(map[Preparer]func(int, *parallel.Budget) (*dataset.Table, error))
		}
		sc.prepared[pr] = level
	}
	sc.prepMu.Unlock()
	return level(k, b)
}

// comparisonColumns returns the numeric quasi-identifier and sensitive
// columns of P — the attributes Definition 1 compares.
func comparisonColumns(p *dataset.Table) []string {
	var cols []string
	for i := 0; i < p.NumCols(); i++ {
		c := p.Schema().Column(i)
		if c.Kind != dataset.Number {
			continue
		}
		if c.Class == dataset.QuasiIdentifier || c.Class == dataset.Sensitive {
			cols = append(cols, c.Name)
		}
	}
	return cols
}

// Run executes FRED Anonymization (Algorithm 1) on the private table p: a
// one-worker SweepStream on a fresh context, then Decide's threshold
// filter and H-objective argmax. Explicit thresholds stop the stream at the
// stopping rule; with Tp and Tu both zero the whole range is swept, and
// Decide calibrates the thresholds from it and truncates.
func Run(p *dataset.Table, cfg Config) (*Result, error) {
	if cfg.Anonymizer == nil {
		return nil, errors.New("core: config needs an anonymizer")
	}
	if p == nil || p.NumRows() == 0 {
		return nil, errors.New("core: empty private table")
	}
	minK := cfg.MinK
	if minK == 0 {
		minK = 2
	}
	if minK < 2 {
		return nil, fmt.Errorf("core: MinK must be ≥ 2, got %d", minK)
	}
	maxK := cfg.MaxK
	if maxK == 0 {
		maxK = p.NumRows()
	}
	if maxK < minK {
		return nil, fmt.Errorf("core: MaxK %d below MinK %d", maxK, minK)
	}

	explicit := cfg.Tp != 0 || cfg.Tu != 0
	var levels []LevelResult
	err := SweepStream(context.Background(), NewSweepContext(p, cfg.Attack), StreamConfig{
		Anonymizer: cfg.Anonymizer,
		MinK:       minK,
		MaxK:       maxK,
		Workers:    1,
		Tp:         cfg.Tp,
	}, func(lr LevelResult) error {
		levels = append(levels, lr)
		if explicit && cfg.StopsAfter(lr) {
			return ErrStopSweep
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return Decide(levels, cfg)
}

// Sweep evaluates every level in [minK, maxK] unconditionally — the series
// behind Figures 4–7, which the paper plots for k = 2..16 regardless of
// thresholds. A sweep that outgrows the table ends early rather than
// failing. It is SweepParallel on one worker.
func Sweep(p *dataset.Table, anon Anonymizer, atk AttackConfig, minK, maxK int) ([]LevelResult, error) {
	return SweepParallel(p, anon, atk, minK, maxK, 1)
}

// SweepParallel is Sweep with the levels evaluated concurrently — they are
// independent, so the sweep parallelizes perfectly. Results are identical to
// Sweep's (same order, deterministic); only wall time changes. Workers
// bounds the concurrency (0 means one worker per level). It is SweepStream
// on a fresh context, collected into a slice.
func SweepParallel(p *dataset.Table, anon Anonymizer, atk AttackConfig, minK, maxK, workers int) ([]LevelResult, error) {
	var out []LevelResult
	err := SweepStream(context.Background(), NewSweepContext(p, atk), StreamConfig{
		Anonymizer: anon,
		MinK:       minK,
		MaxK:       maxK,
		Workers:    workers,
	}, func(lr LevelResult) error {
		out = append(out, lr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EndsSweep reports whether err is the legitimate "k exceeds the table"
// condition that ends a level sweep early rather than failing it: an
// anonymizer error wrapping dataset.ErrTooFewRecords, as every in-tree
// scheme's does. Any other level error fails the sweep, whatever its text.
// SweepStream applies the same predicate; it is exported for callers that
// stitch sweeps together chunk by chunk.
func EndsSweep(err error) bool { return errors.Is(err, dataset.ErrTooFewRecords) }
