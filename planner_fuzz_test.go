package repro

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/planner"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/metrics"
	"repro/internal/microagg"
	"repro/internal/mondrian"
	"repro/internal/parallel"
)

// plannerCase is one planner run against its exhaustive ground truth.
type plannerCase struct {
	sc      *Scenario
	anon    func() core.Anonymizer
	series  []core.LevelResult // every level of 2..maxK, the exhaustive sweep
	tp, tu  float64
	held    map[int]core.LevelResult
	workers int
}

func (c plannerCase) attack() core.AttackConfig {
	return core.AttackConfig{Aux: c.sc.Q, SensitiveRange: fusion.Range{Lo: 40000, Hi: 160000}}
}

// exhaustive streams every level of 2..maxK on one worker.
func (c *plannerCase) exhaustive(t *testing.T, maxK int) {
	t.Helper()
	c.series = nil
	err := core.SweepStream(context.Background(), core.NewSweepContext(c.sc.P, c.attack()), core.StreamConfig{
		Anonymizer: c.anon(), MinK: 2, MaxK: maxK, Workers: 1,
	}, func(lr core.LevelResult) error {
		c.series = append(c.series, lr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// run runs the planner over the exhaustive series' levels and fails the
// test if it adopts any level twice.
func (c plannerCase) run(t *testing.T) *planner.Outcome {
	t.Helper()
	ks, err := planner.Expand(2, c.series[len(c.series)-1].K, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	adopted := map[int]bool{}
	out, err := planner.Run(context.Background(), c.sc.P, planner.Config{
		Anonymizer: c.anon(), Attack: c.attack(), Levels: ks,
		Tp: c.tp, Tu: c.tu, Held: c.held, Workers: c.workers,
		Hooks: planner.Hooks{Level: func(lr core.LevelResult, _ bool) {
			if adopted[lr.K] {
				t.Fatalf("level k=%d adopted twice", lr.K)
			}
			adopted[lr.K] = true
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(adopted) != len(out.Levels) {
		t.Fatalf("hooks adopted %d levels, the series holds %d", len(adopted), len(out.Levels))
	}
	return out
}

// sameDecisionBits fails the test unless the planner's series decides
// exactly as the exhaustive one: the same candidates, H to the bit, the
// same optimal level and release.
func (c plannerCase) sameDecisionBits(t *testing.T, levels []core.LevelResult) {
	t.Helper()
	want, wantErr := core.DecideWithin(slices.Clone(c.series), c.tp, c.tu, metrics.DefaultHOptions())
	got, gotErr := core.DecideWithin(levels, c.tp, c.tu, metrics.DefaultHOptions())
	if errors.Is(wantErr, core.ErrNoCandidate) || errors.Is(gotErr, core.ErrNoCandidate) {
		if !errors.Is(wantErr, core.ErrNoCandidate) || !errors.Is(gotErr, core.ErrNoCandidate) {
			t.Fatalf("candidate disagreement: exhaustive err %v, planner err %v", wantErr, gotErr)
		}
		return
	}
	if wantErr != nil || gotErr != nil {
		t.Fatalf("decide: exhaustive %v, planner %v", wantErr, gotErr)
	}
	if got.OptimalK != want.OptimalK || math.Float64bits(got.Hmax) != math.Float64bits(want.Hmax) {
		t.Fatalf("planner chose k=%d (H %v), exhaustive k=%d (H %v)", got.OptimalK, got.Hmax, want.OptimalK, want.Hmax)
	}
	if len(got.H) != len(want.H) {
		t.Fatalf("%d candidates, exhaustive %d", len(got.H), len(want.H))
	}
	for i := range got.H {
		if math.Float64bits(got.H[i]) != math.Float64bits(want.H[i]) {
			t.Fatalf("H[%d] = %v, exhaustive %v", i, got.H[i], want.H[i])
		}
	}
	if got.Optimal != nil && !got.Optimal.Equal(want.Optimal) {
		t.Fatalf("released tables differ at k=%d", got.OptimalK)
	}
}

func monotoneUtility(series []core.LevelResult) bool {
	for i := 1; i < len(series); i++ {
		if series[i].Utility > series[i-1].Utility {
			return false
		}
	}
	return true
}

// TestPlannerCheckCatchesRiseAtProbePoint pins the case only the bisection
// check catches. On this 45-row cohort MDAV's utility falls to 0.00235 at
// k=8 and rises to 0.00247 at k=9, which is Tu: the scan stops at k=8 and,
// on its own, would miss candidate k=9. The check's probe at k=9 sees the
// rise, and the fallback restores the exhaustive decision to the bit.
func TestPlannerCheckCatchesRiseAtProbePoint(t *testing.T) {
	sc, err := UniversityScenario(ScenarioOptions{Seed: 5604, N: 45, DirectAux: true})
	if err != nil {
		t.Fatal(err)
	}
	c := plannerCase{sc: sc, anon: func() core.Anonymizer { return microagg.New() }}
	c.exhaustive(t, 12)
	c.tu = c.series[7].Utility // k=9
	if c.series[6].Utility >= c.tu {
		t.Fatalf("cohort drifted: U(k=8) = %v is not below U(k=9) = %v", c.series[6].Utility, c.tu)
	}
	scanOnly, err := core.DecideWithin(slices.Clone(c.series[:7]), 0, c.tu, metrics.DefaultHOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.DecideWithin(slices.Clone(c.series), 0, c.tu, metrics.DefaultHOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(want.Candidates, func(i int) bool { return want.Levels[i].K == 9 }) ||
		len(scanOnly.Candidates) == len(want.Candidates) {
		t.Fatalf("exhaustive candidates %v, scan-only %v: k=9 must be the candidate a bare scan misses",
			want.Candidates, scanOnly.Candidates)
	}
	for _, workers := range []int{1, 2} {
		c.workers = workers
		out := c.run(t)
		if !out.Fallback || out.FallbackReason != "non-monotone series at k=9" || out.Probed < 1 {
			t.Fatalf("workers=%d: fallback=%v (%q) after %d probes; the probe at k=9 must trigger it",
				workers, out.Fallback, out.FallbackReason, out.Probed)
		}
		c.sameDecisionBits(t, out.Levels)
	}
}

// countingPreparer is MDAV's own prepared form, counting the Prepare calls.
type countingPreparer struct {
	*microagg.Anonymizer
	prepares atomic.Int32
}

func (c *countingPreparer) Prepare(t *dataset.Table, b *parallel.Budget) func(int, *parallel.Budget) (*dataset.Table, error) {
	c.prepares.Add(1)
	return c.Anonymizer.Prepare(t, b)
}

// TestPlannerPreparesPOncePerRun: every level and probe of a planner run
// shares one sweep context, so the run prepares P once, on one worker and
// on two, whether it scans to the Tu crossing and probes above it, falls
// back from such a scan to the exhaustive walk (the cohort of
// TestPlannerCheckCatchesRiseAtProbePoint), or walks under a budget
// without thresholds.
func TestPlannerPreparesPOncePerRun(t *testing.T) {
	cohort := func(seed int64, n, tuK int) (plannerCase, float64) {
		sc, err := UniversityScenario(ScenarioOptions{Seed: seed, N: n, DirectAux: true})
		if err != nil {
			t.Fatal(err)
		}
		c := plannerCase{sc: sc}
		lr, err := core.NewSweepContext(sc.P, c.attack()).RunLevel(microagg.New(), tuK, 0)
		if err != nil {
			t.Fatal(err)
		}
		return c, lr.Utility
	}
	scan, tuScan := cohort(42, 400, 6)
	rise, tuRise := cohort(5604, 45, 9)
	for _, tc := range []struct {
		name   string
		c      plannerCase
		maxK   int
		tu     float64
		budget bool
		ran    func(*planner.Outcome) bool
	}{
		{"scan and check", scan, 16, tuScan, false, func(o *planner.Outcome) bool { return !o.Fallback && o.Probed > 0 }},
		{"check falls back", rise, 12, tuRise, false, func(o *planner.Outcome) bool { return o.Fallback }},
		{"budget walk", scan, 16, 0, true, func(o *planner.Outcome) bool { return o.Evaluated == o.Requested }},
	} {
		ks, err := planner.Expand(2, tc.maxK, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			anon := &countingPreparer{Anonymizer: microagg.New()}
			cfg := planner.Config{Anonymizer: anon, Attack: tc.c.attack(), Levels: ks, Tu: tc.tu, Workers: workers}
			if tc.budget {
				cfg.Deadline = time.Now().Add(time.Hour)
			}
			out, err := planner.Run(context.Background(), tc.c.sc.P, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if !tc.ran(out) {
				t.Fatalf("%s workers=%d: outcome %+v does not run the case", tc.name, workers, *out)
			}
			if n := anon.prepares.Load(); n != 1 {
				t.Errorf("%s workers=%d: P prepared %d times in one run, want 1", tc.name, workers, n)
			}
		}
	}
}

// FuzzPlannerMatchesExhaustive: over small random cohorts, both schemes,
// thresholds drawn from the exhaustive series, random held subsets and one
// or two workers, the planner adopts no level twice; when the exhaustive
// utility series is monotone, or the run fell back, it decides exactly as
// the exhaustive sweep; and on monotone runs without a fallback it
// evaluates at most the candidate band plus its crossing level. CI's fuzz
// job runs it for 10 s.
func FuzzPlannerMatchesExhaustive(f *testing.F) {
	// The cohort TestPlannerCheckCatchesRiseAtProbePoint pins: 45 rows,
	// MDAV, k = 2..12, Tu = U(k=9), Tp = 0, nothing held, two workers.
	f.Add(int64(5604), uint8(15), false, uint8(4), uint8(7), uint8(0), uint16(0), uint8(1))
	f.Add(int64(42), uint8(50), true, uint8(8), uint8(3), uint8(2), uint16(0b1001), uint8(0))
	f.Add(int64(7), uint8(0), false, uint8(0), uint8(1), uint8(5), uint16(0xffff), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, rows uint8, useMondrian bool, span, tuAt, tpAt uint8, heldMask uint16, workers uint8) {
		sc, err := UniversityScenario(ScenarioOptions{Seed: seed, N: 30 + int(rows)%51, DirectAux: true})
		if err != nil {
			t.Fatal(err)
		}
		c := plannerCase{sc: sc, anon: func() core.Anonymizer { return microagg.New() }, workers: 1 + int(workers)%2}
		if useMondrian {
			c.anon = func() core.Anonymizer { return mondrian.New() }
		}
		c.exhaustive(t, 8+int(span)%9)
		c.tu = c.series[int(tuAt)%len(c.series)].Utility
		if tpAt > 0 {
			c.tp = c.series[int(tpAt-1)%len(c.series)].After
		}
		c.held = map[int]core.LevelResult{}
		for i, lr := range c.series {
			if heldMask&(1<<(i%16)) != 0 {
				c.held[lr.K] = lr
			}
		}
		out := c.run(t)
		monotone := monotoneUtility(c.series)
		if monotone || out.Fallback {
			c.sameDecisionBits(t, out.Levels)
		}
		if monotone && !out.Fallback {
			band := 0
			for _, lr := range c.series {
				if lr.Utility >= c.tu {
					band++
				}
			}
			if out.Evaluated > band+1 {
				t.Fatalf("evaluated %d levels on a monotone series, bound %d (band %d plus its crossing)", out.Evaluated, band+1, band)
			}
			if out.Probed > ceilLog2(len(c.series)+1) {
				t.Fatalf("probed %d levels, more than bisection's %d probe points", out.Probed, ceilLog2(len(c.series)+1))
			}
		}
	})
}
