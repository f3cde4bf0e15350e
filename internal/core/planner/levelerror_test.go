package planner

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/microagg"
)

// failsAtK4 is MDAV failing at k=4 with an error that does not wrap
// dataset.ErrTooFewRecords, though its text reads like the sweep-ending
// condition's.
type failsAtK4 struct{ core.Anonymizer }

func (a failsAtK4) Anonymize(t *dataset.Table, k int) (*dataset.Table, error) {
	if k == 4 {
		return nil, errors.New("scheme: quasi-identifier Age cannot be generalized")
	}
	return a.Anonymizer.Anonymize(t, k)
}

// TestLevelErrorAbortsSweep: a level error other than the sweep-ending
// condition aborts the sweep, whatever its text, through SweepStream at one
// and two workers and through Run, instead of ending the series at k=3 as if
// the table had run out of records (which would have Run mark k ≥ 4
// infeasible and its caller report the sweep done).
func TestLevelErrorAbortsSweep(t *testing.T) {
	p, q := universityFixture(t, 40)
	atk := core.AttackConfig{Aux: q, SensitiveRange: salaryRange()}
	const want = "core: level k=4: scheme: quasi-identifier Age cannot be generalized"
	for _, workers := range []int{1, 2} {
		var ks []int
		err := core.SweepStream(context.Background(), core.NewSweepContext(p, atk), core.StreamConfig{
			Anonymizer: failsAtK4{microagg.New()}, MinK: 2, MaxK: 8, Workers: workers,
		}, func(lr core.LevelResult) error {
			ks = append(ks, lr.K)
			return nil
		})
		if err == nil || err.Error() != want {
			t.Fatalf("SweepStream workers=%d: err %v after levels %v, want %q", workers, err, ks, want)
		}
		out, err := Run(context.Background(), p, Config{
			Anonymizer: failsAtK4{microagg.New()}, Attack: atk, Levels: []int{2, 3, 4, 5, 6, 7, 8}, Workers: workers,
		})
		if err == nil || err.Error() != want {
			t.Fatalf("Run workers=%d: err %v (outcome %+v), want %q", workers, err, out, want)
		}
	}
}
