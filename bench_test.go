package repro

// One benchmark per table and figure of the paper, plus ablations and
// micro-benchmarks of the substrates. The benches also publish the headline
// series values through b.ReportMetric so `go test -bench` output doubles as
// a numeric record.

import (
	"bytes"
	"context"
	"io"
	"os"

	"fmt"

	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/fuzzy"
	"repro/internal/hierarchy"
	"repro/internal/kanon"
	"repro/internal/linkage"
	"repro/internal/metrics"
	"repro/internal/microagg"
	"repro/internal/mondrian"
	"repro/internal/service"
	"repro/internal/web"
)

// benchScenario builds the standard 40-faculty scenario once per benchmark.
func benchScenario(b *testing.B) *Scenario {
	b.Helper()
	sc, err := UniversityScenario(ScenarioOptions{Seed: 42, N: 40})
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// --- Tables I-IV -----------------------------------------------------------

// BenchmarkTableI builds the Table I sensitive database.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if datagen.TableI().NumRows() != 4 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTableII builds the Table II enterprise data.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if datagen.TableII().NumRows() != 4 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTableIII produces the anonymized enterprise release via
// full-domain generalization, the paper's Table III step.
func BenchmarkTableIII(b *testing.B) {
	p := datagen.TableII()
	gens := make(map[string]hierarchy.Generalizer)
	for _, name := range []string{"InvstVol", "InvstAmt", "Valuation"} {
		l, err := hierarchy.NewLadder(0, 10, 5)
		if err != nil {
			b.Fatal(err)
		}
		gens[name] = l
	}
	a := kanon.New(gens)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Anonymize(p, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIV runs the adversary's collection step: search the web
// corpus by identifier, extract, link — producing Table IV.
func BenchmarkTableIV(b *testing.B) {
	corpus, err := web.BuildCorpus(datagen.TableIIProfiles(), web.GenOptions{Seed: 2008, Distractors: 25})
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"Alice", "Bob", "Christine", "Robert"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := web.Gather(corpus, names, web.CorporateLadder, linkage.DefaultMatcher())
		if err != nil {
			b.Fatal(err)
		}
		if q.NumRows() != 4 {
			b.Fatal("bad gather")
		}
	}
}

// --- Figures 4-8 -----------------------------------------------------------

// sweepOnce runs the Figures 4-7 level sweep and reports headline values.
func sweepOnce(b *testing.B, sc *Scenario) []core.LevelResult {
	b.Helper()
	levels, err := sc.Sweep(2, 16, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	return levels
}

// BenchmarkFig4BeforeFusion regenerates the (P∘P') series.
func BenchmarkFig4BeforeFusion(b *testing.B) {
	sc := benchScenario(b)
	var levels []core.LevelResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		levels = sweepOnce(b, sc)
	}
	b.ReportMetric(levels[0].Before, "before@k=2")
	b.ReportMetric(levels[len(levels)-1].Before, "before@k=16")
}

// BenchmarkFig5AfterFusion regenerates the (P∘P̂) series.
func BenchmarkFig5AfterFusion(b *testing.B) {
	sc := benchScenario(b)
	var levels []core.LevelResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		levels = sweepOnce(b, sc)
	}
	b.ReportMetric(levels[0].After, "after@k=2")
	b.ReportMetric(levels[len(levels)-1].After, "after@k=16")
}

// BenchmarkFig6InformationGain regenerates the G series.
func BenchmarkFig6InformationGain(b *testing.B) {
	sc := benchScenario(b)
	var levels []core.LevelResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		levels = sweepOnce(b, sc)
	}
	b.ReportMetric(levels[0].Gain, "gain@k=2")
	b.ReportMetric(levels[len(levels)-1].Gain, "gain@k=16")
}

// BenchmarkFig7Utility regenerates the U_k series.
func BenchmarkFig7Utility(b *testing.B) {
	sc := benchScenario(b)
	var levels []core.LevelResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		levels = sweepOnce(b, sc)
	}
	b.ReportMetric(levels[0].Utility*1e3, "mU@k=2")
	b.ReportMetric(levels[len(levels)-1].Utility*1e3, "mU@k=16")
}

// BenchmarkFig8WeightedSum runs full FRED with auto-calibrated thresholds
// and reports the optimum of Figure 8.
func BenchmarkFig8WeightedSum(b *testing.B) {
	sc := benchScenario(b)
	var res *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sc.RunFRED(FREDOptions{MaxK: 16})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.OptimalK), "optimal-k")
	b.ReportMetric(res.Hmax, "Hmax")
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationSchemes re-runs the sweep under each partitioning scheme,
// checking the paper's "other solutions produce similar results" claim.
func BenchmarkAblationSchemes(b *testing.B) {
	sc := benchScenario(b)
	for _, anon := range []core.Anonymizer{microagg.New(), mondrian.New()} {
		b.Run(anon.Name(), func(b *testing.B) {
			var levels []core.LevelResult
			for i := 0; i < b.N; i++ {
				var err error
				levels, err = sc.Sweep(2, 16, anon, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(levels[0].After, "after@k=2")
			b.ReportMetric(levels[len(levels)-1].After, "after@kmax")
		})
	}
}

// BenchmarkAblationFusion compares fusion engines: how much of the breach is
// the fuzzy machinery versus any fusion at all.
func BenchmarkAblationFusion(b *testing.B) {
	sc := benchScenario(b)
	release, err := sc.Release(6, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, est := range []fusion.Estimator{
		fusion.Midpoint{}, fusion.Rank{}, sc.Estimator(),
	} {
		b.Run(est.Name(), func(b *testing.B) {
			var after float64
			for i := 0; i < b.N; i++ {
				_, _, a, err := sc.Attack(release, est)
				if err != nil {
					b.Fatal(err)
				}
				after = a
			}
			b.ReportMetric(after, "after@k=6")
		})
	}
}

// BenchmarkAblationHNormalization compares the H scalings of
// metrics.HNormalization.
func BenchmarkAblationHNormalization(b *testing.B) {
	sc := benchScenario(b)
	levels := sweepOnce(b, sc)
	dis := make([]float64, len(levels))
	utl := make([]float64, len(levels))
	for i, lr := range levels {
		dis[i], utl[i] = lr.After, lr.Utility
	}
	for _, norm := range []metrics.HNormalization{
		metrics.NormalizeByMax, metrics.NormalizeNone, metrics.NormalizeMinMax,
	} {
		b.Run(norm.String(), func(b *testing.B) {
			var best int
			for i := 0; i < b.N; i++ {
				h, err := metrics.HSeries(dis, utl, metrics.HOptions{W1: 0.5, W2: 0.5, Normalize: norm})
				if err != nil {
					b.Fatal(err)
				}
				best, _, err = metrics.ArgMax(h)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(levels[best].K), "argmax-k")
		})
	}
}

// BenchmarkAblationLiteralLoop measures the pseudocode's literal stopping
// rule against the prose rule.
func BenchmarkAblationLiteralLoop(b *testing.B) {
	sc := benchScenario(b)
	for _, literal := range []bool{false, true} {
		name := "prose-loop"
		if literal {
			name = "literal-loop"
		}
		b.Run(name, func(b *testing.B) {
			var levels int
			for i := 0; i < b.N; i++ {
				res, err := sc.RunFRED(FREDOptions{MaxK: 16, LiteralPaperLoop: literal, Tp: 1, Tu: 1e-9})
				if err != nil {
					b.Fatal(err)
				}
				levels = len(res.Levels)
			}
			b.ReportMetric(float64(levels), "levels-swept")
		})
	}
}

// BenchmarkAblationWebNoise sweeps the attack under increasing web noise.
func BenchmarkAblationWebNoise(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts web.GenOptions
	}{
		{"clean", web.GenOptions{}},
		{"missing30", web.GenOptions{MissingProperty: 0.3, MissingEmployment: 0.3}},
		{"typos50", web.GenOptions{NameTypoProb: 0.5}},
		{"noisy", web.GenOptions{MissingProperty: 0.3, NameTypoProb: 0.3, PropertyNoise: 0.3}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sc, err := UniversityScenario(ScenarioOptions{Seed: 42, N: 40, Web: tc.opts})
			if err != nil {
				b.Fatal(err)
			}
			release, err := sc.Release(6, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var after float64
			for i := 0; i < b.N; i++ {
				_, _, a, err := sc.Attack(release, nil)
				if err != nil {
					b.Fatal(err)
				}
				after = a
			}
			b.ReportMetric(after, "after@k=6")
		})
	}
}

// BenchmarkAblationMicroaggVariants compares MDAV against V-MDAV on
// within-group SSE (information loss).
func BenchmarkAblationMicroaggVariants(b *testing.B) {
	sc := benchScenario(b)
	variants := []struct {
		name   string
		assign func(k int) ([][]int, error)
	}{
		{"mdav", func(k int) ([][]int, error) { return microagg.New().Assign(sc.P, k) }},
		{"v-mdav", func(k int) ([][]int, error) { return microagg.NewVMDAV().Assign(sc.P, k) }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var sse float64
			for i := 0; i < b.N; i++ {
				groups, err := v.assign(5)
				if err != nil {
					b.Fatal(err)
				}
				sse = microagg.SSE(sc.P, groups)
			}
			b.ReportMetric(sse, "sse@k=5")
		})
	}
}

// BenchmarkRiskAssessment measures the record-level disclosure report.
func BenchmarkRiskAssessment(b *testing.B) {
	sc := benchScenario(b)
	release, err := sc.Release(6, nil)
	if err != nil {
		b.Fatal(err)
	}
	var breach float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := sc.Assess(release, nil)
		if err != nil {
			b.Fatal(err)
		}
		breach = a.Breach10
	}
	b.ReportMetric(breach, "breach10@k=6")
}

// BenchmarkAblationHandAuthoredFIS attacks with the hand-written compound
// rule base of testdata/university.fis — the "adversary with domain
// knowledge" of Section 3.B. It breaches far harder than the auto-generated
// single-antecedent rules.
func BenchmarkAblationHandAuthoredFIS(b *testing.B) {
	sc := benchScenario(b)
	release, err := sc.Release(6, nil)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/university.fis")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := fuzzy.ParseFIS(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	m, err := fusion.FeaturesMatrixWith(release, fusion.PrepareAux(sc.Q), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	est := &fusion.FIS{System: sys, FeatureNames: m.Names}
	b.ResetTimer()
	var after float64
	for i := 0; i < b.N; i++ {
		_, _, a, err := sc.Attack(release, est)
		if err != nil {
			b.Fatal(err)
		}
		after = a
	}
	b.ReportMetric(after, "after@k=6")
}

// BenchmarkScalingCohort measures the full attack at growing cohort sizes —
// the scaling picture the paper leaves out.
func BenchmarkScalingCohort(b *testing.B) {
	for _, n := range []int{40, 100, 250} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			sc, err := UniversityScenario(ScenarioOptions{Seed: 42, N: n})
			if err != nil {
				b.Fatal(err)
			}
			release, err := sc.Release(6, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var after float64
			for i := 0; i < b.N; i++ {
				_, _, a, err := sc.Attack(release, nil)
				if err != nil {
					b.Fatal(err)
				}
				after = a
			}
			b.ReportMetric(after, "after@k=6")
		})
	}
}

// BenchmarkSweepParallel compares the sequential and concurrent sweeps.
func BenchmarkSweepParallel(b *testing.B) {
	sc := benchScenario(b)
	atk := core.AttackConfig{Aux: sc.Q, Estimator: sc.Estimator(), SensitiveRange: sc.SensitiveRange}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Sweep(sc.P, microagg.New(), atk, 2, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SweepParallel(sc.P, microagg.New(), atk, 2, 16, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Service path ------------------------------------------------------------

// benchServiceSpec is the standard fred-sweep job over the benchmark
// scenario's P and Q, as submitted through the service layer.
func benchServiceSpec(b *testing.B, store *service.Store, sc *Scenario) service.Spec {
	b.Helper()
	pInfo, err := store.Put(service.DefaultTenant, "P", sc.P)
	if err != nil {
		b.Fatal(err)
	}
	qInfo, err := store.Put(service.DefaultTenant, "Q", sc.Q)
	if err != nil {
		b.Fatal(err)
	}
	return service.Spec{
		Type: service.JobFREDSweep, Table: pInfo.ID, Aux: qInfo.ID,
		MinK: 2, MaxK: 16,
		SensitiveLo: 40000, SensitiveHi: 160000,
	}
}

// runServiceJob submits one job and blocks until it completes.
func runServiceJob(b *testing.B, e *service.Engine, spec service.Spec) service.Status {
	b.Helper()
	st, err := e.Submit(service.DefaultTenant, spec)
	if err != nil {
		b.Fatal(err)
	}
	st, err = e.Wait(context.Background(), service.DefaultTenant, st.ID)
	if err != nil {
		b.Fatal(err)
	}
	if st.State != service.StateDone {
		b.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	return st
}

// BenchmarkServiceFREDSweep measures the full service path — job submit
// through worker pool to completion — for a fred-sweep, uncached versus
// served from the LRU result cache. This is the baseline every serving-layer
// perf PR moves against.
func BenchmarkServiceFREDSweep(b *testing.B) {
	sc := benchScenario(b)
	b.Run("uncached", func(b *testing.B) {
		store := service.NewStore()
		spec := benchServiceSpec(b, store, sc)
		e := service.NewEngine(store, service.Options{Workers: 2, CacheSize: -1})
		e.Start()
		defer e.Shutdown(context.Background())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runServiceJob(b, e, spec)
		}
	})
	b.Run("cached", func(b *testing.B) {
		store := service.NewStore()
		spec := benchServiceSpec(b, store, sc)
		e := service.NewEngine(store, service.Options{Workers: 2})
		e.Start()
		defer e.Shutdown(context.Background())
		warm := runServiceJob(b, e, spec)
		if warm.Cached {
			b.Fatal("warmup must compute")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st := runServiceJob(b, e, spec); !st.Cached {
				b.Fatal("expected a cache hit")
			}
		}
	})
}

// BenchmarkServiceAnonymize measures the cheapest job type end to end — the
// engine's fixed overhead (queue, snapshotting, hashing is at submit).
func BenchmarkServiceAnonymize(b *testing.B) {
	sc := benchScenario(b)
	store := service.NewStore()
	pInfo, err := store.Put(service.DefaultTenant, "P", sc.P)
	if err != nil {
		b.Fatal(err)
	}
	e := service.NewEngine(store, service.Options{Workers: 2, CacheSize: -1})
	e.Start()
	defer e.Shutdown(context.Background())
	spec := service.Spec{Type: service.JobAnonymize, Table: pInfo.ID, K: 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runServiceJob(b, e, spec)
	}
}

// --- Substrate micro-benchmarks ---------------------------------------------

// BenchmarkMDAV measures microaggregation on the standard cohort.
func BenchmarkMDAV(b *testing.B) {
	sc := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := microagg.New().Anonymize(sc.P, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMondrian measures Mondrian partitioning on the standard cohort.
func BenchmarkMondrian(b *testing.B) {
	sc := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mondrian.New().Anonymize(sc.P, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFuzzyFuse measures one full F(P', Q) evaluation.
func BenchmarkFuzzyFuse(b *testing.B) {
	sc := benchScenario(b)
	release, err := sc.Release(6, nil)
	if err != nil {
		b.Fatal(err)
	}
	est := sc.Estimator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fusion.FuseWith(release, fusion.PrepareAux(sc.Q), est, sc.SensitiveRange, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWebSearch measures corpus search by identifier.
func BenchmarkWebSearch(b *testing.B) {
	sc := benchScenario(b)
	names := sc.P.ColumnStrings(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sc.Corpus.Search(names[i%len(names)], 3) == nil {
			b.Fatal("no hits")
		}
	}
}

// BenchmarkDissimilarity measures Definition 1 on the cohort matrices.
func BenchmarkDissimilarity(b *testing.B) {
	sc := benchScenario(b)
	cols := []string{"Teaching", "Research", "Service", "Salary"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.TableDissimilarity(sc.P, sc.P, cols, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableClone measures the copy-on-write clone plus the zero-copy
// release projection — the per-level table plumbing of a sweep.
func BenchmarkTableClone(b *testing.B) {
	sc := benchScenario(b)
	sens := sc.P.Schema().IndicesOf(dataset.Sensitive)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel := sc.P.WithSuppressed(sens...)
		if rel.NumRows() != sc.P.NumRows() {
			b.Fatal("bad view")
		}
	}
}

// BenchmarkHashTable measures the content hash that keys the service result
// cache (columnar fingerprint under SHA-256).
func BenchmarkHashTable(b *testing.B) {
	sc := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := service.HashTable(sc.P); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatures measures the adversary's feature assembly, uncached
// versus with the aux-side columns prepared once (the SweepContext path).
func BenchmarkFeatures(b *testing.B) {
	sc := benchScenario(b)
	release, err := sc.Release(6, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fusion.FeaturesMatrixWith(release, fusion.PrepareAux(sc.Q), nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared-aux", func(b *testing.B) {
		aux := fusion.PrepareAux(sc.Q)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fusion.FeaturesMatrixWith(release, aux, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCodecs times the table codecs at the shapes the service moves
// over the wire and to disk: the uploads of P and Q (ReadCSV), the k=8
// mondrian and MDAV release downloads and a 40-row MDAV release (WriteCSV,
// sensitive column suppressed as the service releases it), and P's
// snapshot (WriteSnapshot, what PutTable writes). The cohort is the
// 2·10⁴-row university cohort with the perfectly informed adversary's Q,
// the shape of fredbench's plan-mondrian-20k uploads.
func BenchmarkCodecs(b *testing.B) {
	cohort := func(n int) *Scenario {
		sc, err := UniversityScenario(ScenarioOptions{Seed: 101, N: n, DirectAux: true})
		if err != nil {
			b.Fatal(err)
		}
		return sc
	}
	release := func(p *dataset.Table, anon core.Anonymizer, k int) *dataset.Table {
		rel, err := anon.Anonymize(p, k)
		if err != nil {
			b.Fatal(err)
		}
		return rel.WithSuppressed(rel.Schema().IndicesOf(dataset.Sensitive)...)
	}
	encode := func(t *dataset.Table) []byte {
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, t); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}
	sc, small := cohort(20000), cohort(40)
	for _, c := range []struct {
		name string
		csv  []byte
	}{{"P-20000", encode(sc.P)}, {"Q-20000", encode(sc.Q)}} {
		b.Run("ReadCSV/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.csv)))
			for i := 0; i < b.N; i++ {
				if _, err := dataset.ReadCSV(bytes.NewReader(c.csv)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, c := range []struct {
		name string
		t    *dataset.Table
	}{
		{"mondrian-k8-20000", release(sc.P, mondrian.New(), 8)},
		{"mdav-k8-20000", release(sc.P, microagg.New(), 8)},
		{"mdav-k4-40", release(small.P, microagg.New(), 4)},
	} {
		b.Run("WriteCSV/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := dataset.WriteCSV(io.Discard, c.t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("WriteSnapshot/P-20000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sc.P.WriteSnapshot(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}
