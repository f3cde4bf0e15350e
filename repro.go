// Package repro reproduces Ganta & Acharya, "On Breaching Enterprise Data
// Privacy Through Adversarial Information Fusion" (ICDE Workshops 2008,
// arXiv:0801.1715): the Web-Based Information-Fusion Attack on anonymized
// enterprise data and the FRED (Fusion Resilient Enterprise Data)
// anonymization algorithm.
//
// The package is a thin facade over the internal subsystems; it bundles the
// paper's two evaluation scenarios (the Table II financial example and the
// university faculty-salary experiment of Section 6) so examples, CLIs and
// benchmarks share one construction path.
//
//	sc, _ := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 40})
//	levels, _ := sc.Sweep(2, 16, nil, nil)      // Figures 4–7 series
//	res, _ := sc.RunFRED(repro.FREDOptions{})   // Figure 8 + optimal k
package repro

import (
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/linkage"
	"repro/internal/microagg"
	"repro/internal/risk"
	"repro/internal/web"
)

// Scenario bundles everything the attack needs: the private table P, the
// ground-truth web profiles, the generated corpus, and the gathered
// auxiliary table Q (the paper's Table IV step already performed).
type Scenario struct {
	P              *dataset.Table
	Profiles       []web.Profile
	Corpus         *web.Corpus
	Q              *dataset.Table
	Ladder         web.Ladder
	SensitiveRange fusion.Range
	SensitiveCol   string
	// FeatureDomains fixes the fuzzy input ranges from domain knowledge,
	// aligned with the column order of fusion.FeaturesMatrixWith (release
	// numeric QIs, then aux Seniority and PropertyHoldings) — the Figure 2
	// convention.
	FeatureDomains []fusion.Range
}

// ScenarioOptions configures scenario construction.
type ScenarioOptions struct {
	// Seed drives both the dataset and the web corpus.
	Seed int64
	// N is the roster size (0 → scenario default: 40 faculty / 30
	// customers).
	N int
	// Web tunes corpus noise. Zero value means a clean corpus with 2·N
	// distractor pages.
	Web web.GenOptions
	// DirectAux derives the auxiliary table Q straight from the ground-truth
	// profiles instead of generating a corpus and web-gathering it — the
	// perfectly informed adversary. Million-row benchmarks use it: corpus
	// construction and gathering are O(roster × pages) and dominate at scale,
	// while the data plane under test (partitioning, fusion, metrics) never
	// sees the difference. Seniority is quantized through the ladder's title
	// vocabulary exactly as page extraction would report it; the scenario's
	// Corpus is left nil.
	DirectAux bool
}

// UniversityScenario builds the Section 6 experiment: faculty performance
// reviews (quasi-identifiers), salary (sensitive), homepages on the academic
// ladder.
func UniversityScenario(opts ScenarioOptions) (*Scenario, error) {
	p, profiles, err := datagen.University(datagen.UniversityConfig{Seed: opts.Seed, N: opts.N})
	if err != nil {
		return nil, err
	}
	return finishScenario(p, profiles, web.AcademicLadder, fusion.Range{Lo: 40000, Hi: 160000}, "Salary", opts)
}

// FinancialScenario builds an N-customer version of the Table II setting on
// the corporate ladder with income in [$40k, $100k].
func FinancialScenario(opts ScenarioOptions) (*Scenario, error) {
	n := opts.N
	if n == 0 {
		n = 30
	}
	p, profiles, err := datagen.Financial(datagen.FinancialConfig{Seed: opts.Seed, N: n})
	if err != nil {
		return nil, err
	}
	return finishScenario(p, profiles, web.CorporateLadder, fusion.Range{Lo: 40000, Hi: 100000}, "Income", opts)
}

// TableIIScenario builds the paper's four-customer worked example exactly
// (Tables II and IV).
func TableIIScenario(webOpts web.GenOptions) (*Scenario, error) {
	p := datagen.TableII()
	return finishScenario(p, datagen.TableIIProfiles(), web.CorporateLadder,
		fusion.Range{Lo: 40000, Hi: 100000}, "Income",
		ScenarioOptions{Seed: webOpts.Seed, Web: webOpts})
}

func finishScenario(p *dataset.Table, profiles []web.Profile, ladder web.Ladder, rng fusion.Range, sensitive string, opts ScenarioOptions) (*Scenario, error) {
	var corpus *web.Corpus
	var q *dataset.Table
	var err error
	if opts.DirectAux {
		q, err = directAux(profiles, ladder)
		if err != nil {
			return nil, err
		}
	} else {
		webOpts := opts.Web
		webOpts.Seed = opts.Seed
		if webOpts.Distractors == 0 {
			webOpts.Distractors = 2 * p.NumRows()
		}
		corpus, err = web.BuildCorpus(profiles, webOpts)
		if err != nil {
			return nil, err
		}
		q, err = web.Gather(corpus, p.ColumnStrings(0), ladder, linkage.DefaultMatcher())
		if err != nil {
			return nil, err
		}
	}
	// Domain knowledge for the fuzzy sets (Figure 2): every enterprise index
	// and the seniority score live on the public 1–10 scale; property
	// holdings on the public [200, 8000] index. One domain per numeric QI
	// of P, then the two numeric aux attributes.
	var domains []fusion.Range
	for _, i := range p.Schema().IndicesOf(dataset.QuasiIdentifier) {
		if p.Schema().Column(i).Kind == dataset.Number {
			domains = append(domains, fusion.Range{Lo: 1, Hi: 10})
		}
	}
	domains = append(domains, fusion.Range{Lo: 1, Hi: 10}, fusion.Range{Lo: 200, Hi: 8000})
	return &Scenario{
		P: p, Profiles: profiles, Corpus: corpus, Q: q,
		Ladder: ladder, SensitiveRange: rng, SensitiveCol: sensitive,
		FeatureDomains: domains,
	}, nil
}

// directAux builds Q from ground-truth profiles in Gather's exact layout:
// one row per roster entry in roster order, the title text in Employment,
// its ladder score in Seniority, the property index verbatim. Rows stream
// through the chunked builder, so a million-profile Q materializes without
// intermediate growth copies.
func directAux(profiles []web.Profile, ladder web.Ladder) (*dataset.Table, error) {
	b := dataset.NewBuilder(web.QSchema())
	row := make([]dataset.Value, 4)
	for _, p := range profiles {
		title := ladder.TitleFor(p.Seniority)
		score, ok := ladder.Score(title)
		row[0] = dataset.Str(p.Name)
		row[1] = dataset.Str(title)
		if ok {
			row[2] = dataset.Num(score)
		} else {
			row[2] = dataset.NullValue()
		}
		row[3] = dataset.Num(p.Property)
		if err := b.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return b.Table(), nil
}

// Estimator returns the scenario's default fusion system: the Figure 2
// fuzzy system with fixed domain-knowledge fuzzy sets.
func (s *Scenario) Estimator() fusion.Estimator {
	return &fusion.Fuzzy{Opts: fusion.FuzzyOptions{Domains: s.FeatureDomains}}
}

// attack returns the scenario's attack configuration with optional
// estimator override.
func (s *Scenario) attack(est fusion.Estimator) core.AttackConfig {
	if est == nil {
		est = s.Estimator()
	}
	return core.AttackConfig{Aux: s.Q, Estimator: est, SensitiveRange: s.SensitiveRange}
}

// Release anonymizes P at level k with the given scheme (nil → MDAV, the
// paper's choice) and suppresses the sensitive column — the internal
// enterprise release of Section 1.
func (s *Scenario) Release(k int, anon core.Anonymizer) (*dataset.Table, error) {
	if anon == nil {
		anon = microagg.New()
	}
	out, err := anon.Anonymize(s.P, k)
	if err != nil {
		return nil, err
	}
	for _, c := range out.Schema().IndicesOf(dataset.Sensitive) {
		out.SuppressColumn(c)
	}
	return out, nil
}

// Attack simulates the Web-Based Information-Fusion Attack on a release,
// returning P̂ and the before/after dissimilarities (nil estimator → fuzzy).
func (s *Scenario) Attack(release *dataset.Table, est fusion.Estimator) (phat *dataset.Table, before, after float64, err error) {
	return core.Attack(s.P, release, s.attack(est))
}

// Sweep evaluates levels minK..maxK (nil anonymizer → MDAV, nil estimator →
// fuzzy): the series behind Figures 4–7.
func (s *Scenario) Sweep(minK, maxK int, anon core.Anonymizer, est fusion.Estimator) ([]core.LevelResult, error) {
	if anon == nil {
		anon = microagg.New()
	}
	return core.Sweep(s.P, anon, s.attack(est), minK, maxK)
}

// SweepParallel is Sweep with the levels evaluated concurrently; results are
// identical to Sweep's. Workers bounds the concurrency (0 → one per level).
func (s *Scenario) SweepParallel(minK, maxK int, anon core.Anonymizer, est fusion.Estimator, workers int) ([]core.LevelResult, error) {
	if anon == nil {
		anon = microagg.New()
	}
	return core.SweepParallel(s.P, anon, s.attack(est), minK, maxK, workers)
}

// FREDOptions configures RunFRED. Tp and Tu both zero calibrate the
// thresholds the way the paper did — "based on experimental observations" —
// from the swept series (core.CalibrateThresholds).
type FREDOptions struct {
	Anonymizer core.Anonymizer
	Estimator  fusion.Estimator
	Tp, Tu     float64
	MaxK       int
	// LiteralPaperLoop reproduces the pseudocode's literal stopping rule.
	LiteralPaperLoop bool
}

// RunFRED executes Algorithm 1 on the scenario over k = 2..MaxK (nil
// anonymizer → MDAV, MaxK 0 → 16).
func (s *Scenario) RunFRED(opts FREDOptions) (*core.Result, error) {
	anon := opts.Anonymizer
	if anon == nil {
		anon = microagg.New()
	}
	maxK := opts.MaxK
	if maxK == 0 {
		maxK = 16
	}
	return core.Run(s.P, core.Config{
		Anonymizer:       anon,
		Attack:           s.attack(opts.Estimator),
		Tp:               opts.Tp,
		Tu:               opts.Tu,
		MaxK:             maxK,
		LiteralPaperLoop: opts.LiteralPaperLoop,
	})
}

// Assess attacks a release and reports record-level disclosure risk: the
// ±10%/±20% breach rates, the Low/Med/High class hit rate against the
// midpoint baseline, and rank exposure (internal/risk).
func (s *Scenario) Assess(release *dataset.Table, est fusion.Estimator) (*risk.Assessment, error) {
	phat, _, _, err := s.Attack(release, est)
	if err != nil {
		return nil, err
	}
	return risk.Assess(s.P, phat, s.SensitiveCol, s.SensitiveRange.Lo, s.SensitiveRange.Hi)
}
