package repro

// TestPlannerEquivalenceProperty is the adaptive planner's correctness
// property, randomized: over random cohorts, schemes, worker counts,
// thresholds and warm-start subsets, the planner's decision — optimal k,
// Hmax, the H series and the released table — must be IEEE-754-bit-identical
// to the exhaustive sweep's, and on monotone-utility series it must evaluate
// at most the candidate band plus its crossing level. The trials are seeded,
// so a failure reproduces deterministically; runs in CI's planner job.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/core/planner"
	"repro/internal/fusion"
	"repro/internal/metrics"
	"repro/internal/microagg"
	"repro/internal/mondrian"
)

func TestPlannerEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	schemes := []struct {
		name string
		anon func() core.Anonymizer
	}{
		{"mdav", func() core.Anonymizer { return microagg.New() }},
		{"mondrian", func() core.Anonymizer { return mondrian.New() }},
	}
	for trial := 0; trial < 6; trial++ {
		n := 60 + rng.Intn(340)
		maxK := 10 + rng.Intn(10)
		scheme := schemes[rng.Intn(len(schemes))]
		workers := []int{1, 4}[rng.Intn(2)]
		sc, err := UniversityScenario(ScenarioOptions{Seed: int64(100 + trial), N: n, DirectAux: true})
		if err != nil {
			t.Fatal(err)
		}
		atk := core.AttackConfig{Aux: sc.Q, SensitiveRange: fusion.Range{Lo: 40000, Hi: 160000}}

		// Exhaustive ground truth: every level of the range, streamed.
		var series []core.LevelResult
		err = core.SweepStream(context.Background(), core.NewSweepContext(sc.P, atk), core.StreamConfig{
			Anonymizer: scheme.anon(), MinK: 2, MaxK: maxK, Workers: workers,
		}, func(lr core.LevelResult) error {
			series = append(series, lr)
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d (%s n=%d): exhaustive sweep: %v", trial, scheme.name, n, err)
		}
		if len(series) < 3 {
			t.Fatalf("trial %d: exhaustive sweep produced only %d levels", trial, len(series))
		}
		monotone := true
		for i := 1; i < len(series); i++ {
			if series[i].Utility > series[i-1].Utility {
				monotone = false
			}
		}

		// Random explicit thresholds drawn from the series itself, and a
		// random warm-start subset adopted verbatim from it.
		tu := series[rng.Intn(len(series))].Utility
		var tp float64
		if rng.Intn(2) == 0 {
			tp = series[rng.Intn(len(series))].After
		}
		held := map[int]core.LevelResult{}
		for _, lr := range series {
			if rng.Intn(3) == 0 {
				held[lr.K] = lr
			}
		}

		ks, err := planner.Expand(2, series[len(series)-1].K, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := planner.Run(context.Background(), sc.P, planner.Config{
			Anonymizer: scheme.anon(), Attack: atk,
			Levels: ks, Tp: tp, Tu: tu,
			Workers: workers, Held: held,
		})
		if err != nil {
			t.Fatalf("trial %d (%s n=%d tp=%g tu=%g warm=%d): planner: %v",
				trial, scheme.name, n, tp, tu, len(held), err)
		}

		wantSeries := append([]core.LevelResult(nil), series...)
		want, wantErr := core.DecideWithin(wantSeries, tp, tu, metrics.DefaultHOptions())
		got, gotErr := core.DecideWithin(out.Levels, tp, tu, metrics.DefaultHOptions())
		if errors.Is(wantErr, core.ErrNoCandidate) || errors.Is(gotErr, core.ErrNoCandidate) {
			if !errors.Is(wantErr, core.ErrNoCandidate) || !errors.Is(gotErr, core.ErrNoCandidate) {
				t.Fatalf("trial %d: candidate disagreement: exhaustive err %v, planner err %v",
					trial, wantErr, gotErr)
			}
			continue
		}
		if wantErr != nil || gotErr != nil {
			t.Fatalf("trial %d: decide: exhaustive %v, planner %v", trial, wantErr, gotErr)
		}
		if got.OptimalK != want.OptimalK {
			t.Fatalf("trial %d (%s n=%d tp=%g tu=%g): planner chose k=%d, exhaustive k=%d",
				trial, scheme.name, n, tp, tu, got.OptimalK, want.OptimalK)
		}
		if math.Float64bits(got.Hmax) != math.Float64bits(want.Hmax) {
			t.Fatalf("trial %d: Hmax %x, exhaustive %x",
				trial, math.Float64bits(got.Hmax), math.Float64bits(want.Hmax))
		}
		if len(got.H) != len(want.H) {
			t.Fatalf("trial %d: %d candidates, exhaustive %d", trial, len(got.H), len(want.H))
		}
		for i := range got.H {
			if math.Float64bits(got.H[i]) != math.Float64bits(want.H[i]) {
				t.Fatalf("trial %d: H[%d] differs: %x vs %x",
					trial, i, math.Float64bits(got.H[i]), math.Float64bits(want.H[i]))
			}
		}
		if !got.Optimal.Equal(want.Optimal) {
			t.Fatalf("trial %d: released tables differ at k=%d", trial, got.OptimalK)
		}

		// The speedup contract on monotone series: the candidate band plus
		// its crossing level, warm seeds only ever helping.
		if monotone && !out.Fallback {
			band := 0
			for _, lr := range series {
				if lr.Utility >= tu {
					band++
				}
			}
			bound := band + 1
			if out.Evaluated > bound {
				t.Fatalf("trial %d (%s n=%d, band %d of %d): planner evaluated %d levels, bound %d",
					trial, scheme.name, n, band, len(series), out.Evaluated, bound)
			}
		}
	}
}

func ceilLog2(n int) int {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b
}
