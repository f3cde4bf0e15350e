package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/microagg"
)

// TestSweepStreamPropertyRandomized is a property-style test of the
// streaming executor: across randomized (but seeded, hence reproducible)
// worker counts, held level sets (none, a checkpointed prefix, or an
// arbitrary subset) and fault injections — consumer stops via ErrStopSweep
// and context cancellations at arbitrary emission points — the emitted
// series is ALWAYS a k-ordered prefix of the non-held levels, with no
// non-held level skipped, bit-identical to the sequential sweep. This is the
// invariant every consumer builds on: the service's WAL checkpoints, the
// crash-resume and warm-start held sets and the HTTP event stream all
// assume concurrency and interruption never change what is observed, only
// how much of it.
func TestSweepStreamPropertyRandomized(t *testing.T) {
	const minK, maxK = 2, 12
	p, q := universityFixture(t, 40)
	atk := AttackConfig{Aux: q, SensitiveRange: salaryRange()}

	// The sequential baseline the paper's Algorithm 1 would compute.
	seq, err := Sweep(p, microagg.New(), atk, minK, maxK)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != maxK-minK+1 {
		t.Fatalf("baseline swept %d levels, want %d", len(seq), maxK-minK+1)
	}

	sameBits := func(a, b LevelResult) bool {
		return a.K == b.K && a.Candidate == b.Candidate &&
			math.Float64bits(a.Before) == math.Float64bits(b.Before) &&
			math.Float64bits(a.After) == math.Float64bits(b.After) &&
			math.Float64bits(a.Gain) == math.Float64bits(b.Gain) &&
			math.Float64bits(a.Utility) == math.Float64bits(b.Utility)
	}

	rng := rand.New(rand.NewSource(20260730))
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		workers := rng.Intn(9) // 0 = one worker per level, 1 = sequential path
		held := map[int]bool{}
		switch rng.Intn(3) {
		case 1: // a checkpointed prefix [minK, startK)
			startK := minK + rng.Intn(maxK-minK+1)
			for k := minK; k < startK; k++ {
				held[k] = true
			}
		case 2: // an arbitrary subset, leaving at least one level to emit
			for k := minK; k <= maxK; k++ {
				held[k] = rng.Intn(2) == 1
			}
			held[minK+rng.Intn(maxK-minK+1)] = false
		}
		var unheld []int
		for k := minK; k <= maxK; k++ {
			if !held[k] {
				unheld = append(unheld, k)
			}
		}
		remaining := len(unheld)

		// Fault injection: none, consumer stop, or context cancel, at a
		// uniformly random emission index among the non-held levels.
		const (
			injNone = iota
			injStop
			injCancel
		)
		inj := rng.Intn(3)
		injAt := rng.Intn(remaining)

		ctx, cancel := context.WithCancel(context.Background())
		var got []LevelResult
		err := SweepStream(ctx, NewSweepContext(p, atk), StreamConfig{
			Anonymizer: microagg.New(),
			MinK:       minK,
			MaxK:       maxK,
			Held:       held,
			Workers:    workers,
		}, func(lr LevelResult) error {
			got = append(got, lr)
			if len(got)-1 == injAt {
				switch inj {
				case injStop:
					return ErrStopSweep
				case injCancel:
					cancel()
				}
			}
			return nil
		})
		cancel()

		desc := func() string {
			return map[int]string{injNone: "none", injStop: "stop", injCancel: "cancel"}[inj]
		}
		switch inj {
		case injCancel:
			// A cancel during the FINAL emission races sweep completion:
			// both "completed, nil" and "canceled" are legal outcomes. At
			// any earlier emission the cancel must win, because the
			// executor re-checks the context before every next emission.
			lastEmission := injAt == remaining-1
			if !errors.Is(err, context.Canceled) && !(lastEmission && err == nil) {
				t.Fatalf("trial %d (workers=%d unheld=%v inj=cancel@%d): err %v, want context.Canceled",
					trial, workers, unheld, injAt, err)
			}
			if len(got) != injAt+1 {
				t.Fatalf("trial %d (workers=%d unheld=%v): %d levels emitted after a cancel at emission %d",
					trial, workers, unheld, len(got), injAt)
			}
		default:
			if err != nil {
				t.Fatalf("trial %d (workers=%d unheld=%v inj=%s@%d): %v",
					trial, workers, unheld, desc(), injAt, err)
			}
			want := remaining
			if inj == injStop {
				want = injAt + 1
			}
			if len(got) != want {
				t.Fatalf("trial %d (workers=%d unheld=%v inj=%s@%d): emitted %d levels, want %d",
					trial, workers, unheld, desc(), injAt, len(got), want)
			}
		}

		// The core property: whatever happened, the emissions are a
		// k-ordered prefix of the non-held levels, and every level is
		// bit-identical to the sequential baseline.
		for i, lr := range got {
			wantK := unheld[i]
			if lr.K != wantK {
				t.Fatalf("trial %d (workers=%d unheld=%v): emission %d has k=%d, want %d (gap or disorder)",
					trial, workers, unheld, i, lr.K, wantK)
			}
			if !sameBits(lr, seq[wantK-minK]) {
				t.Fatalf("trial %d (workers=%d unheld=%v): k=%d differs from the sequential sweep:\n got %+v\nwant %+v",
					trial, workers, unheld, lr.K, lr, seq[wantK-minK])
			}
		}
	}
}
