package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/microagg"
	"repro/internal/mondrian"
	"repro/internal/parallel"
)

// TestSweepStreamOrderedUnderParallelWorkers: whatever the worker count,
// levels are emitted gap-free in ascending k order and bit-identical to the
// sequential sweep.
func TestSweepStreamOrderedUnderParallelWorkers(t *testing.T) {
	p, q := universityFixture(t, 40)
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	seq, err := Sweep(p, microagg.New(), atk, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4, 16} {
		var got []LevelResult
		err := SweepStream(context.Background(), NewSweepContext(p, atk), StreamConfig{
			Anonymizer: microagg.New(),
			MinK:       2,
			MaxK:       12,
			Workers:    workers,
		}, func(lr LevelResult) error {
			got = append(got, lr)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(seq) {
			t.Fatalf("workers=%d: emitted %d levels, want %d", workers, len(got), len(seq))
		}
		for i, lr := range got {
			if lr.K != i+2 {
				t.Fatalf("workers=%d: emission %d has k=%d, want %d (k-order violated)", workers, i, lr.K, i+2)
			}
			if lr.Before != seq[i].Before || lr.After != seq[i].After ||
				lr.Gain != seq[i].Gain || lr.Utility != seq[i].Utility {
				t.Errorf("workers=%d k=%d: streamed level differs from sequential", workers, lr.K)
			}
		}
	}
}

// TestSweepStreamEarlyStopPastTable: a level above MinK outgrowing the table
// ends the series cleanly; the same condition at MinK is an error.
func TestSweepStreamEarlyStopPastTable(t *testing.T) {
	p, q := universityFixture(t, 10)
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	var ks []int
	err := SweepStream(context.Background(), NewSweepContext(p, atk), StreamConfig{
		Anonymizer: microagg.New(),
		MinK:       2,
		MaxK:       40,
		Workers:    4,
	}, func(lr LevelResult) error {
		ks = append(ks, lr.K)
		return nil
	})
	if err != nil {
		t.Fatalf("early stop must not be an error: %v", err)
	}
	if len(ks) == 0 || ks[len(ks)-1] > 10 {
		t.Errorf("emitted ks = %v, want a series ending at or before k=10", ks)
	}
	for i, k := range ks {
		if k != i+2 {
			t.Fatalf("emission %d has k=%d: early stop broke k-order", i, k)
		}
	}

	// MinK itself exceeding the table is a sweep error, not an early stop.
	err = SweepStream(context.Background(), NewSweepContext(p, atk), StreamConfig{
		Anonymizer: microagg.New(),
		MinK:       11,
		MaxK:       20,
	}, func(LevelResult) error { return nil })
	if err == nil {
		t.Error("first level exceeding the table must fail the sweep")
	}
}

// TestSweepStreamCancellation: cancelling the context mid-sweep aborts
// promptly with context.Canceled and stops emission.
func TestSweepStreamCancellation(t *testing.T) {
	p, q := universityFixture(t, 40)
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	err := SweepStream(ctx, NewSweepContext(p, atk), StreamConfig{
		Anonymizer: microagg.New(),
		MinK:       2,
		MaxK:       30,
		Workers:    2,
	}, func(lr LevelResult) error {
		emitted++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted != 1 {
		t.Errorf("emitted %d levels after cancel, want 1", emitted)
	}

	// A context cancelled before the sweep starts emits nothing.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	err = SweepStream(pre, NewSweepContext(p, atk), StreamConfig{
		Anonymizer: microagg.New(),
		MinK:       2,
		MaxK:       6,
	}, func(LevelResult) error {
		t.Error("emit called under a pre-cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
}

// TestSweepStreamStopSentinel: emit returning ErrStopSweep ends the sweep
// without error; any other emit error aborts and surfaces verbatim.
func TestSweepStreamStopSentinel(t *testing.T) {
	p, q := universityFixture(t, 40)
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	var got []LevelResult
	err := SweepStream(context.Background(), NewSweepContext(p, atk), StreamConfig{
		Anonymizer: microagg.New(),
		MinK:       2,
		MaxK:       16,
		Workers:    4,
	}, func(lr LevelResult) error {
		got = append(got, lr)
		if len(got) == 3 {
			return ErrStopSweep
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ErrStopSweep must end the sweep cleanly: %v", err)
	}
	if len(got) != 3 || got[2].K != 4 {
		t.Fatalf("stopped series = %d levels (last k=%d), want 3 ending at k=4", len(got), got[len(got)-1].K)
	}

	boom := fmt.Errorf("emit exploded")
	err = SweepStream(context.Background(), NewSweepContext(p, atk), StreamConfig{
		Anonymizer: microagg.New(),
		MinK:       2,
		MaxK:       6,
	}, func(LevelResult) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("emit error = %v, want the callback's error verbatim", err)
	}
}

// heldBelow holds the prefix [minK, k): the levels a crashed sweep had
// checkpointed before it was cut.
func heldBelow(minK, k int) map[int]bool {
	held := make(map[int]bool, k-minK)
	for h := minK; h < k; h++ {
		held[h] = true
	}
	return held
}

// TestSweepStreamHeldPrefixResume: a sweep holding [MinK, k) emits exactly
// the tail of the full series from k, bit-identical, under sequential and
// parallel execution — the contract crash recovery relies on to finish an
// interrupted sweep without changing a single bit of the result.
func TestSweepStreamHeldPrefixResume(t *testing.T) {
	p, q := universityFixture(t, 40)
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	full, err := Sweep(p, microagg.New(), atk, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, startK := range []int{2, 7, 12} {
			var got []LevelResult
			err := SweepStream(context.Background(), NewSweepContext(p, atk), StreamConfig{
				Anonymizer: microagg.New(),
				MinK:       2,
				MaxK:       12,
				Held:       heldBelow(2, startK),
				Workers:    workers,
			}, func(lr LevelResult) error {
				got = append(got, lr)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d startK=%d: %v", workers, startK, err)
			}
			tail := full[startK-2:]
			if len(got) != len(tail) {
				t.Fatalf("workers=%d startK=%d: emitted %d levels, want %d", workers, startK, len(got), len(tail))
			}
			for i, lr := range got {
				if lr.K != tail[i].K {
					t.Fatalf("workers=%d startK=%d: emission %d has k=%d, want %d", workers, startK, i, lr.K, tail[i].K)
				}
				if lr.Before != tail[i].Before || lr.After != tail[i].After ||
					lr.Gain != tail[i].Gain || lr.Utility != tail[i].Utility {
					t.Errorf("workers=%d startK=%d k=%d: resumed level differs from the full sweep", workers, startK, lr.K)
				}
			}
		}
	}
}

// TestSweepStreamHeldPrefixPastTableEndsCleanly: a held prefix reaching
// beyond what the table supports ends the series cleanly (the caller holds
// the lower levels), even when the first unheld level is the first one the
// sweep attempts.
func TestSweepStreamHeldPrefixPastTableEndsCleanly(t *testing.T) {
	p, q := universityFixture(t, 10)
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	emitted := 0
	err := SweepStream(context.Background(), NewSweepContext(p, atk), StreamConfig{
		Anonymizer: microagg.New(),
		MinK:       2,
		MaxK:       40,
		Held:       heldBelow(2, 11), // table holds 10 records: k=11 exceeds it immediately
		Workers:    2,
	}, func(LevelResult) error {
		emitted++
		return nil
	})
	if err != nil {
		t.Fatalf("resumed sweep past the table must end cleanly: %v", err)
	}
	if emitted != 0 {
		t.Errorf("emitted %d levels past the table, want 0", emitted)
	}
}

// sameLevelBits reports whether two levels agree on k, candidacy and every
// number of the series, bit for bit.
func sameLevelBits(a, b LevelResult) bool {
	return a.K == b.K && a.Candidate == b.Candidate &&
		math.Float64bits(a.Before) == math.Float64bits(b.Before) &&
		math.Float64bits(a.After) == math.Float64bits(b.After) &&
		math.Float64bits(a.Gain) == math.Float64bits(b.Gain) &&
		math.Float64bits(a.Utility) == math.Float64bits(b.Utility)
}

// TestSweepStreamCapsLevelsAtRows: no scheme anonymizes n rows at k > n, so
// a MaxK far past the row count lists no level above it: the sweep emits
// what MaxK = n emits instead of sizing its level list by MaxK.
func TestSweepStreamCapsLevelsAtRows(t *testing.T) {
	p, q := universityFixture(t, 40)
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	sweep := func(maxK int) []LevelResult {
		var got []LevelResult
		err := SweepStream(context.Background(), NewSweepContext(p, atk), StreamConfig{
			Anonymizer: microagg.New(), MinK: 2, MaxK: maxK, Workers: 2,
		}, func(lr LevelResult) error {
			got = append(got, lr)
			return nil
		})
		if err != nil {
			t.Fatalf("MaxK=%d: %v", maxK, err)
		}
		return got
	}
	want, got := sweep(40), sweep(1<<40)
	if len(got) != len(want) {
		t.Fatalf("MaxK=2⁴⁰ emitted %d levels, MaxK=40 %d", len(got), len(want))
	}
	for i := range got {
		if !sameLevelBits(got[i], want[i]) {
			t.Fatalf("MaxK=2⁴⁰ level k=%d differs from MaxK=40's", got[i].K)
		}
	}
}

// TestSweepContextSharedAcrossWalks: one budgeted context serves a
// SweepStream stopped at k=3, then RunLevel, ProbeUtilities and a second
// full SweepStream, and each gives the bits a fresh context gives. So a
// walk's budget, stopped with the walk, never stays on the context, and
// the prepared form the stopped walk built is whole.
func TestSweepContextSharedAcrossWalks(t *testing.T) {
	p, q := universityFixture(t, 60)
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	anon := mondrian.New()
	want, err := SweepParallel(p, mondrian.New(), atk, 2, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewSweepContextParallel(p, atk, 2)
	stream := func(stopK int) []LevelResult {
		var got []LevelResult
		err := SweepStream(context.Background(), sc, StreamConfig{
			Anonymizer: anon, MinK: 2, MaxK: 8, Workers: 2,
		}, func(lr LevelResult) error {
			got = append(got, lr)
			if lr.K == stopK {
				return ErrStopSweep
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	same := func(label string, got []LevelResult) {
		t.Helper()
		for i, lr := range got {
			if !sameLevelBits(lr, want[lr.K-2]) || !lr.Release.Equal(want[lr.K-2].Release) {
				t.Fatalf("%s: level %d (k=%d) differs from a fresh context's", label, i, lr.K)
			}
		}
	}
	got := stream(3)
	if len(got) != 2 {
		t.Fatalf("stopped sweep emitted %d levels, want 2", len(got))
	}
	same("stopped sweep", got)
	lr, err := sc.RunLevel(anon, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	same("RunLevel", []LevelResult{lr})
	ks := []int{8, 4}
	us, errs := sc.ProbeUtilities(anon, ks)
	for i, k := range ks {
		if errs[i] != nil || math.Float64bits(us[i]) != math.Float64bits(want[k-2].Utility) {
			t.Fatalf("probe k=%d: utility %v (err %v), want %v", k, us[i], errs[i], want[k-2].Utility)
		}
	}
	got = stream(0)
	if len(got) != len(want) {
		t.Fatalf("second sweep emitted %d levels, want %d", len(got), len(want))
	}
	same("second sweep", got)
}

// TestSweepStreamValidation mirrors the Sweep/SweepParallel contracts.
func TestSweepStreamValidation(t *testing.T) {
	p, _ := universityFixture(t, 10)
	noop := func(LevelResult) error { return nil }
	if err := SweepStream(context.Background(), NewSweepContext(p, AttackConfig{}), StreamConfig{MinK: 2, MaxK: 4}, noop); err == nil {
		t.Error("nil anonymizer accepted")
	}
	if err := SweepStream(context.Background(), NewSweepContext(p, AttackConfig{}), StreamConfig{Anonymizer: microagg.New(), MinK: 1, MaxK: 4}, noop); err == nil {
		t.Error("minK=1 accepted")
	}
	if err := SweepStream(context.Background(), NewSweepContext(p, AttackConfig{}), StreamConfig{Anonymizer: microagg.New(), MinK: 5, MaxK: 4}, noop); err == nil {
		t.Error("inverted range accepted")
	}
}

// TestDecideMatchesRun: Decide over a full series reaches Run's exact
// decision — same thresholds, candidates, H and optimal level — under
// explicit thresholds, where Run stops its stream and Decide truncates the
// series itself, and under zero thresholds, where both calibrate.
func TestDecideMatchesRun(t *testing.T) {
	p, q := universityFixture(t, 40)
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	probe, err := Sweep(p, microagg.New(), atk, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		tp, tu  float64
		literal bool
		stops   bool // the stopping rule fires inside k = 2..16
	}{
		{"explicit", probe[4].After, probe[12].Utility, false, false},
		{"explicit-stop", probe[4].After, probe[4].Utility, false, true},
		{"literal", probe[4].After, probe[4].Utility, true, true},
		{"calibrated", 0, 0, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Anonymizer: microagg.New(), Attack: atk, Tp: tc.tp, Tu: tc.tu, MaxK: 16, LiteralPaperLoop: tc.literal}
			want, err := Run(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decide(slices.Clone(probe), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.OptimalK != want.OptimalK || got.Hmax != want.Hmax || !slices.Equal(got.H, want.H) {
				t.Errorf("Decide picked k=%d (H=%g), Run picked k=%d (H=%g)",
					got.OptimalK, got.Hmax, want.OptimalK, want.Hmax)
			}
			if !slices.Equal(got.Candidates, want.Candidates) || len(got.Levels) != len(want.Levels) {
				t.Errorf("Decide: candidates %v over %d levels, Run: %v over %d",
					got.Candidates, len(got.Levels), want.Candidates, len(want.Levels))
			}
			if got.Tp != want.Tp || got.Tu != want.Tu {
				t.Errorf("Decide used (Tp, Tu) = (%g, %g), Run (%g, %g)", got.Tp, got.Tu, want.Tp, want.Tu)
			}
			if tc.tp != 0 && (got.Tp != tc.tp || got.Tu != tc.tu) {
				t.Errorf("explicit thresholds reported as (%g, %g), want (%g, %g)", got.Tp, got.Tu, tc.tp, tc.tu)
			}
			if stopped := len(got.Levels) < len(probe); stopped != tc.stops {
				t.Errorf("Decide kept %d of %d levels, want the stopping rule to fire: %v", len(got.Levels), len(probe), tc.stops)
			}
		})
	}
}

// countingEstimator is the paper's fuzzy estimator, counting the attacks
// that reach it.
type countingEstimator struct {
	fusion.Estimator
	calls atomic.Int32
}

func newCountingEstimator() *countingEstimator {
	return &countingEstimator{Estimator: fusion.NewFuzzy()}
}

func (c *countingEstimator) EstimateBatch(m fusion.Matrix, out fusion.Range, b *parallel.Budget, a *fusion.Arena, est []float64) error {
	c.calls.Add(1)
	return c.Estimator.EstimateBatch(m, out, b, a, est)
}

// hookedAnonymizer is MDAV with a hook run before each level's
// anonymization: a gate, or a cancel, at chosen levels.
type hookedAnonymizer struct {
	Anonymizer
	before func(k int)
}

func (h hookedAnonymizer) Anonymize(t *dataset.Table, k int) (*dataset.Table, error) {
	h.before(k)
	return h.Anonymizer.Anonymize(t, k)
}

// TestSweepStreamStopSkipsAttackPastStop: a level dispatched past the stop
// is abandoned between its anonymize and attack phases. Every level above
// the stop is gated on the stop itself: emit, at the stop, cancels the
// caller's context and only then opens the gate, so each gated level
// finishes anonymizing after the pool's context is done, whatever the
// scheduling. The estimator runs exactly once per emitted level, and the
// stop still ends the sweep cleanly.
func TestSweepStreamStopSkipsAttackPastStop(t *testing.T) {
	p, q := universityFixture(t, 40)
	est := newCountingEstimator()
	gate := make(chan struct{})
	const stopK = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []int
	err := SweepStream(ctx, NewSweepContext(p, AttackConfig{Aux: q, Estimator: est, SensitiveRange: salaryRange()}), StreamConfig{
		Anonymizer: hookedAnonymizer{microagg.New(), func(k int) {
			if k > stopK {
				<-gate
			}
		}},
		MinK:    2,
		MaxK:    8,
		Workers: 2,
	}, func(lr LevelResult) error {
		got = append(got, lr.K)
		if lr.K < stopK {
			return nil
		}
		cancel()
		close(gate)
		return ErrStopSweep
	})
	if err != nil {
		t.Fatalf("a stop must end the sweep cleanly, got %v", err)
	}
	if !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("emitted k = %v, want [2 3]", got)
	}
	if n := est.calls.Load(); n != int32(len(got)) {
		t.Fatalf("estimator ran %d times for %d emitted levels: a level past the stop ran its attack", n, len(got))
	}
}

// TestSweepStreamCancelAbandonsLevel: a level abandoned by a cancel between
// its phases ends the sweep with the context's error — not as a failure of
// that level — and never reaches the estimator, on one worker and on two:
// the cancel lands before gated levels finish anonymizing.
func TestSweepStreamCancelAbandonsLevel(t *testing.T) {
	p, q := universityFixture(t, 40)
	for _, workers := range []int{1, 2} {
		est := newCountingEstimator()
		gate := make(chan struct{})
		ctx, cancel := context.WithCancel(context.Background())
		before := func(k int) {
			if k > 2 {
				<-gate
			}
		}
		emitted := 0
		err := SweepStream(ctx, NewSweepContext(p, AttackConfig{Aux: q, Estimator: est, SensitiveRange: salaryRange()}), StreamConfig{
			Anonymizer: hookedAnonymizer{microagg.New(), before},
			MinK:       2,
			MaxK:       8,
			Workers:    workers,
		}, func(LevelResult) error {
			emitted++
			cancel()
			close(gate)
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "level k=") {
			t.Fatalf("workers=%d: err = %v, want the context's error, not a level failure", workers, err)
		}
		if emitted != 1 {
			t.Fatalf("workers=%d: emitted %d levels, want 1", workers, emitted)
		}
		if n := est.calls.Load(); n != 1 {
			t.Fatalf("workers=%d: estimator ran %d times, want once (k=2): an abandoned level ran its attack", workers, n)
		}
	}
}

// stallingEstimator writes the midpoint estimate chunk by chunk through
// the budget's For. The first chunk of its second call signals entered and
// waits until the budget is stopped (10 s at most), then runs onStop; the
// chunks that call still runs after its first are counted.
type stallingEstimator struct {
	calls   atomic.Int32
	entered chan struct{}
	onStop  func()
	after   atomic.Int32
}

func (e *stallingEstimator) Name() string { return "stalling" }

func (e *stallingEstimator) EstimateBatch(m fusion.Matrix, out fusion.Range, b *parallel.Budget, _ *fusion.Arena, est []float64) error {
	call := e.calls.Add(1)
	b.For(m.Rows, 256, func(lo, hi int) {
		switch {
		case call != 2:
		case lo == 0:
			close(e.entered)
			for wait := time.Now(); !b.Stopped() && time.Since(wait) < 10*time.Second; {
				time.Sleep(time.Millisecond)
			}
			e.onStop()
		default:
			e.after.Add(1)
		}
		for i := lo; i < hi; i++ {
			est[i] = out.Mid()
		}
	})
	return nil
}

// TestSweepStreamStopCutsAttackShort: a stop that lands while a level past
// it is inside its fusion attack reaches the attack's chunk loop, so no
// further chunk runs, and the cut-short level is never emitted. On two
// workers, k=2 runs first; k=3 waits to anonymize until k=4 holds the
// other token (k=4 then waits for the stop), so k=3's estimator runs its
// chunks inline, and emit stops the sweep at k=2 once k=3's first chunk
// has begun.
func TestSweepStreamStopCutsAttackShort(t *testing.T) {
	p, _, err := datagen.University(datagen.UniversityConfig{Seed: 42, N: 2048})
	if err != nil {
		t.Fatal(err)
	}
	gate3, release4 := make(chan struct{}), make(chan struct{})
	est := &stallingEstimator{entered: make(chan struct{}), onStop: func() { close(release4) }}
	var got []int
	err = SweepStream(context.Background(), NewSweepContext(p, AttackConfig{Estimator: est, SensitiveRange: salaryRange()}), StreamConfig{
		Anonymizer: hookedAnonymizer{microagg.New(), func(k int) {
			switch k {
			case 3:
				<-gate3
			case 4:
				close(gate3)
				<-release4
			}
		}},
		MinK:    2,
		MaxK:    4,
		Workers: 2,
	}, func(lr LevelResult) error {
		got = append(got, lr.K)
		select {
		case <-est.entered:
		case <-time.After(10 * time.Second):
			t.Error("k=3 never reached its attack")
		}
		return ErrStopSweep
	})
	if err != nil {
		t.Fatalf("a stop must end the sweep cleanly, got %v", err)
	}
	if !slices.Equal(got, []int{2}) {
		t.Fatalf("emitted k = %v, want [2]", got)
	}
	if n := est.after.Load(); n != 0 {
		t.Fatalf("%d chunks of k=3's attack ran after the stop landed", n)
	}
	if n := est.calls.Load(); n != 2 {
		t.Fatalf("estimator ran %d times, want 2 (k=2, and k=3 cut short)", n)
	}
}

// TestProbeUtilityMatchesRunLevel: utility-only probes reproduce RunLevel's
// Utility bit for bit, for both schemes, concurrently under a budget and
// inline without one, and never run the fusion attack; a probe past the
// table reports the sweep-ending condition.
func TestProbeUtilityMatchesRunLevel(t *testing.T) {
	p, q := universityFixture(t, 60)
	ks := []int{61, 12, 9, 5, 2, 3}
	for _, anon := range []Anonymizer{microagg.New(), mondrian.New()} {
		for _, workers := range []int{1, 2} {
			est := newCountingEstimator()
			sc := NewSweepContextParallel(p, AttackConfig{Aux: q, Estimator: est, SensitiveRange: salaryRange()}, workers)
			us, errs := sc.ProbeUtilities(anon, ks)
			if n := est.calls.Load(); n != 0 {
				t.Fatalf("%s workers=%d: probes ran the estimator %d times", anon.Name(), workers, n)
			}
			if !EndsSweep(errs[0]) {
				t.Fatalf("%s workers=%d: probe past the table: err = %v, want the sweep-ending condition", anon.Name(), workers, errs[0])
			}
			for i, k := range ks[1:] {
				if errs[i+1] != nil {
					t.Fatal(errs[i+1])
				}
				lr, err := sc.RunLevel(anon, k, 0)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(us[i+1]) != math.Float64bits(lr.Utility) {
					t.Fatalf("%s workers=%d k=%d: probe utility %v, RunLevel %v", anon.Name(), workers, k, us[i+1], lr.Utility)
				}
			}
		}
	}
}
