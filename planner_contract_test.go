package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/fusion"
	"repro/internal/mondrian"
	"repro/internal/service"
)

// TestPlannerEvaluatesAtMost12Of63Levels pins the adaptive planner's level
// budget on a service fred-sweep: mondrian over a 10⁵-row cohort at
// k=2..64, with Tu the k=6 utility, evaluates at most 12 of the 63 levels.
// The scan evaluates 6 — the k=2..6 candidate band and the crossing k=7 —
// and its bisection check probes utilities only. The result cache and the
// level index are off, so the count is one sweep's own evaluations.
func TestPlannerEvaluatesAtMost12Of63Levels(t *testing.T) {
	const maxEvaluated = 12
	sc, err := UniversityScenario(ScenarioOptions{Seed: 42, N: 100000, DirectAux: true})
	if err != nil {
		t.Fatal(err)
	}
	sctx := core.NewSweepContextParallel(sc.P, core.AttackConfig{
		Aux: sc.Q, SensitiveRange: fusion.Range{Lo: 40000, Hi: 160000},
	}, 1)
	lr, err := sctx.RunLevel(mondrian.New(), 6, 0)
	if err != nil {
		t.Fatal(err)
	}

	store := service.NewStore()
	pInfo, err := store.Put(service.DefaultTenant, "P", sc.P)
	if err != nil {
		t.Fatal(err)
	}
	qInfo, err := store.Put(service.DefaultTenant, "Q", sc.Q)
	if err != nil {
		t.Fatal(err)
	}
	e := service.NewEngine(store, service.Options{Workers: 1, SweepWorkers: 1, CacheSize: -1, LevelIndexSize: -1})
	e.Start()
	defer e.Shutdown(context.Background())
	st, err := e.Submit(service.DefaultTenant, service.Spec{
		Type: service.JobFREDSweep, Table: pInfo.ID, Aux: qInfo.ID,
		Scheme: "mondrian", MinK: 2, MaxK: 64, Tu: lr.Utility, Adaptive: true,
		SensitiveLo: 40000, SensitiveHi: 160000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = e.Wait(context.Background(), service.DefaultTenant, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("sweep ended %s: %s", st.State, st.Error)
	}
	n := int(st.Summary["levels_evaluated"])
	if n < 1 || n > maxEvaluated {
		t.Fatalf("planner evaluated %d of 63 levels, want 1..%d", n, maxEvaluated)
	}
	t.Logf("planner evaluated %d of 63 levels", n)
}
