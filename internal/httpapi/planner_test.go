package httpapi_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro"
	"repro/internal/service"
)

// End-to-end coverage of the adaptive planner spec fields over REST: k-set
// and budget-bound sweeps, spec validation, and the SSE shape of the skip
// events an adaptive scan publishes. Runs raced in CI's race job, with
// the rest of the suite.

// TestEndToEndAdaptivePlannerSpecs uploads a monotone-utility cohort and
// drives the new spec fields through the full REST stack.
func TestEndToEndAdaptivePlannerSpecs(t *testing.T) {
	// The level index is disabled so the adaptive job scans instead of
	// warm-starting from the probe sweep — this test wants skip events.
	ts, _, _ := newTestServerEngine(t, true, service.Options{
		Workers: 2, SweepWorkers: 2, LevelIndexSize: -1,
	})
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 400, DirectAux: true})
	if err != nil {
		t.Fatal(err)
	}
	pInfo := uploadTable(t, ts.URL, "faculty-P", sc.P)
	qInfo := uploadTable(t, ts.URL, "web-Q", sc.Q)
	base := service.Spec{
		Type: service.JobFREDSweep, Table: pInfo.ID, Aux: qInfo.ID,
		MinK: 2, MaxK: 16,
		SensitiveLo: 40000, SensitiveHi: 160000,
	}

	// Probe sweep: learns the utility series so the adaptive sweep below
	// can carry explicit thresholds, and doubles as the exhaustive baseline.
	probe := submitJob(t, ts.URL, base)
	probe = pollJob(t, ts.URL, probe.ID)
	if probe.State != service.StateDone {
		t.Fatalf("probe sweep ended %s: %s", probe.State, probe.Error)
	}
	var tu float64
	for _, ls := range probe.Levels {
		if ls.K == 6 {
			tu = ls.Utility
		}
	}
	if tu == 0 {
		t.Fatal("probe sweep did not report a k=6 level")
	}

	t.Run("k-set", func(t *testing.T) {
		spec := base
		spec.KSet = []int{2, 4, 8, 12}
		st := submitJob(t, ts.URL, spec)
		st = pollJob(t, ts.URL, st.ID)
		if st.State != service.StateDone {
			t.Fatalf("k-set sweep ended %s: %s", st.State, st.Error)
		}
		if len(st.Levels) != 4 {
			t.Fatalf("k-set sweep reports %d levels, want 4", len(st.Levels))
		}
		for i, want := range []int{2, 4, 8, 12} {
			if st.Levels[i].K != want {
				t.Fatalf("level %d is k=%d, want k=%d", i, st.Levels[i].K, want)
			}
		}
	})

	t.Run("budget", func(t *testing.T) {
		spec := base
		spec.BudgetMS = 60_000 // generous: asserts the path, not the truncation
		st := submitJob(t, ts.URL, spec)
		st = pollJob(t, ts.URL, st.ID)
		if st.State != service.StateDone {
			t.Fatalf("budget sweep ended %s: %s", st.State, st.Error)
		}
		if _, partial := st.Summary["partial"]; partial {
			t.Fatalf("a 60s budget on a 400-row cohort must not truncate: %v", st.Summary)
		}
		if got := int(st.Summary["levels"]); got != 15 {
			t.Fatalf("budget sweep decided over %d levels, want 15", got)
		}
	})

	t.Run("validation", func(t *testing.T) {
		for name, mutate := range map[string]func(*service.Spec){
			"k_set with stride":    func(sp *service.Spec) { sp.KSet = []int{2, 4}; sp.Stride = 2 },
			"single k_set entry":   func(sp *service.Spec) { sp.KSet = []int{4} },
			"k_set below minimum":  func(sp *service.Spec) { sp.KSet = []int{1, 4} },
			"negative budget":      func(sp *service.Spec) { sp.BudgetMS = -5 },
			"adaptive on non-fred": func(sp *service.Spec) { sp.Type = service.JobAttack; sp.K = 3; sp.Adaptive = true },
		} {
			spec := base
			mutate(&spec)
			body, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				resp.Body.Close()
				t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
			}
			errorBody(t, resp)
			resp.Body.Close()
		}
	})

	t.Run("skip events over SSE", func(t *testing.T) {
		spec := base
		spec.Tu = tu // band k=2..6 — the scan stops at k=7 and skips the tail
		spec.Adaptive = true
		st := submitJob(t, ts.URL, spec)
		st = pollJob(t, ts.URL, st.ID)
		if st.State != service.StateDone {
			t.Fatalf("adaptive sweep ended %s: %s", st.State, st.Error)
		}
		if got := int(st.Summary["levels_evaluated"]); got >= 15 {
			t.Fatalf("adaptive sweep evaluated %d levels, want fewer than 15", got)
		}

		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events status %d", resp.StatusCode)
		}
		var skips []service.Skip
		event := ""
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && event == "skip":
				var ev service.Event
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					t.Fatalf("skip event payload does not parse: %v", err)
				}
				if ev.Skip == nil {
					t.Fatalf("skip event without a skip payload: %s", line)
				}
				skips = append(skips, *ev.Skip)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("read event stream: %v", err)
		}
		if len(skips) == 0 {
			t.Fatal("adaptive sweep streamed no skip events")
		}
		for _, sk := range skips {
			if sk.Reason != "bisection" {
				t.Errorf("skip reason %q, want bisection", sk.Reason)
			}
			if sk.FromK < 2 || sk.ToK > 16 || sk.FromK > sk.ToK {
				t.Errorf("skip range k=%d..%d outside the requested sweep", sk.FromK, sk.ToK)
			}
		}
	})
}
