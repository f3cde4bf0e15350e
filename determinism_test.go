package repro

// Determinism under parallelism: the worker budget is a performance knob,
// never a semantics knob. These property tests drive both anonymization
// kernels and the full sweep over randomized datagen cohorts at several
// worker counts and require bit-identical output everywhere — the same group
// assignments row for row, and IEEE-754-equal level series. They complement
// the golden test (one pinned cohort) with fresh cohorts each run shape.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/fuzzy"
	"repro/internal/microagg"
	"repro/internal/mondrian"
	"repro/internal/parallel"
)

var determinismWorkers = []int{1, 2, 8}

// assignFor runs the scheme's group-assignment kernel under the budget
// (nil budget = the plain sequential entry point).
func assignFor(t *testing.T, scheme string, sc *Scenario, k int, b *parallel.Budget) [][]int {
	t.Helper()
	var groups [][]int
	var err error
	switch scheme {
	case "mdav":
		a := microagg.New()
		if b == nil {
			groups, err = a.Assign(sc.P, k)
		} else {
			groups, err = a.AssignParallel(sc.P, k, b)
		}
	case "mondrian":
		a := mondrian.New()
		if b == nil {
			groups, err = a.Partition(sc.P, k)
		} else {
			groups, err = a.PartitionParallel(sc.P, k, b)
		}
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

// TestGroupAssignmentDeterminism: for randomized cohorts, every worker count
// must produce exactly the sequential group structure — same groups, same
// order, same rows.
func TestGroupAssignmentDeterminism(t *testing.T) {
	for _, scheme := range []string{"mdav", "mondrian"} {
		for _, seed := range []int64{7, 23, 101} {
			for _, n := range []int{60, 350} {
				sc, err := UniversityScenario(ScenarioOptions{Seed: seed, N: n, DirectAux: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{2, 5, 11} {
					want := assignFor(t, scheme, sc, k, nil)
					for _, workers := range determinismWorkers {
						got := assignFor(t, scheme, sc, k, parallel.NewBudget(workers))
						if len(got) != len(want) {
							t.Fatalf("%s seed=%d n=%d k=%d workers=%d: %d groups, sequential made %d",
								scheme, seed, n, k, workers, len(got), len(want))
						}
						for g := range want {
							if len(got[g]) != len(want[g]) {
								t.Fatalf("%s seed=%d n=%d k=%d workers=%d: group %d sized %d, want %d",
									scheme, seed, n, k, workers, g, len(got[g]), len(want[g]))
							}
							for j := range want[g] {
								if got[g][j] != want[g][j] {
									t.Fatalf("%s seed=%d n=%d k=%d workers=%d: group %d row %d is %d, want %d",
										scheme, seed, n, k, workers, g, j, got[g][j], want[g][j])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSweepSeriesDeterminism: the full sweep series — anonymization, fusion
// attack, dissimilarities, utility — is IEEE-754 bit-equal at every worker
// count, for both schemes, on randomized cohorts.
func TestSweepSeriesDeterminism(t *testing.T) {
	for _, scheme := range []struct {
		name string
		anon core.Anonymizer
	}{
		{"mdav", microagg.New()},
		{"mondrian", mondrian.New()},
	} {
		for _, seed := range []int64{7, 23} {
			sc, err := UniversityScenario(ScenarioOptions{Seed: seed, N: 120, DirectAux: true})
			if err != nil {
				t.Fatal(err)
			}
			want, err := sc.Sweep(2, 12, scheme.anon, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range determinismWorkers {
				got, err := sc.SweepParallel(2, 12, scheme.anon, nil, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s seed=%d workers=%d: %d levels, sequential made %d",
						scheme.name, seed, workers, len(got), len(want))
				}
				for i := range want {
					if got[i].K != want[i].K ||
						math.Float64bits(got[i].Before) != math.Float64bits(want[i].Before) ||
						math.Float64bits(got[i].After) != math.Float64bits(want[i].After) ||
						math.Float64bits(got[i].Gain) != math.Float64bits(want[i].Gain) ||
						math.Float64bits(got[i].Utility) != math.Float64bits(want[i].Utility) {
						t.Fatalf("%s seed=%d workers=%d: level k=%d diverged from sequential bits",
							scheme.name, seed, workers, want[i].K)
					}
				}
			}
		}
	}
}

// TestEstimatorSweepDeterminism pins the estimator axis of the attack plane:
// for six estimator families on both schemes, sweeps at workers 1, 2 and 8
// must reproduce testdata/golden_estimators.json bit for bit. The file is a
// frozen record: it was written by the row-at-a-time fusion path that the
// flat-matrix estimators replaced, and nothing in the tree regenerates it.
func TestEstimatorSweepDeterminism(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_estimators.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]goldenLevel
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	sc, err := UniversityScenario(ScenarioOptions{Seed: 13, N: 120, DirectAux: true})
	if err != nil {
		t.Fatal(err)
	}
	// Calibration for the supervised estimators: the fusion features of the
	// un-anonymized release against Q, labelled with the true salaries — the
	// adversary's "leaked sample" — trimmed to a small prefix so KNN stays
	// cheap and the OLS fit stays overdetermined.
	rel := sc.P.WithSuppressed(sc.P.Schema().IndicesOf(dataset.Sensitive)...)
	feats, err := fusion.FeaturesMatrixWith(rel, fusion.PrepareAux(sc.Q), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	calib := make([][]float64, 40)
	for r := range calib {
		calib[r] = feats.Row(r)
	}
	targets := sc.P.ColumnFloats(sc.P.Schema().MustLookup(sc.SensitiveCol), sc.SensitiveRange.Mid())
	calibT := targets[:40]
	fis, err := os.ReadFile(filepath.Join("testdata", "university.fis"))
	if err != nil {
		t.Fatal(err)
	}

	ests := map[string]func() fusion.Estimator{
		"fuzzy": func() fusion.Estimator {
			return &fusion.Fuzzy{Opts: fusion.FuzzyOptions{Domains: sc.FeatureDomains}}
		},
		// Observed-range domains: the estimator every service job runs.
		"fuzzy-observed": func() fusion.Estimator { return fusion.NewFuzzy() },
		// Compound rules: the evaluator's grade-map path.
		"fis": func() fusion.Estimator {
			sys, err := fuzzy.ParseFIS(bytes.NewReader(fis))
			if err != nil {
				t.Fatal(err)
			}
			return &fusion.FIS{System: sys, FeatureNames: feats.Names}
		},
		"knn": func() fusion.Estimator {
			return &fusion.KNN{K: 5, CalibFeatures: calib, CalibTargets: calibT}
		},
		"regression": func() fusion.Estimator {
			return &fusion.Regression{CalibFeatures: calib, CalibTargets: calibT}
		},
		"ensemble": func() fusion.Estimator {
			return &fusion.Ensemble{
				Members: []fusion.Estimator{
					fusion.Midpoint{},
					fusion.Rank{},
					&fusion.KNN{K: 3, CalibFeatures: calib, CalibTargets: calibT},
				},
				Weights: []float64{1, 2, 3},
			}
		},
	}
	schemes := map[string]core.Anonymizer{"mdav": microagg.New(), "mondrian": mondrian.New()}
	if len(golden) != len(ests)*len(schemes) {
		t.Fatalf("golden file has %d series, want %d", len(golden), len(ests)*len(schemes))
	}
	for name, mk := range ests {
		for scheme, anon := range schemes {
			key := name + "/" + scheme
			want, ok := golden[key]
			if !ok {
				t.Fatalf("golden file has no %s series", key)
			}
			est := mk() // one estimator across worker counts, as a sweep would use it
			for _, workers := range determinismWorkers {
				got, err := sc.SweepParallel(2, 10, anon, est, workers)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", key, workers, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s workers=%d: %d levels, golden has %d", key, workers, len(got), len(want))
				}
				for i, lr := range got {
					g := goldenLevel{
						K:       lr.K,
						Before:  math.Float64bits(lr.Before),
						After:   math.Float64bits(lr.After),
						Gain:    math.Float64bits(lr.Gain),
						Utility: math.Float64bits(lr.Utility),
					}
					if g != want[i] {
						t.Fatalf("%s workers=%d: level k=%d diverged from the golden bits", key, workers, want[i].K)
					}
				}
			}
		}
	}
}
