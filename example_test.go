package repro_test

// Runnable walkthroughs of the paper's storyline. `go test` checks each
// one's printed output, so the numbers quoted here are the numbers the code
// produces.

import (
	"fmt"
	"math"

	"repro"
	"repro/internal/datagen"
	"repro/internal/fusion"
	"repro/internal/hierarchy"
	"repro/internal/kanon"
	"repro/internal/linkage"
	"repro/internal/web"
)

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// Example_quickstart anonymizes an enterprise table, simulates the web-based
// information-fusion attack against it, and prints how much the adversary
// gained — the paper's storyline in thirty lines.
func Example_quickstart() {
	// The paper's Table II scenario: four customers, investment indexes as
	// quasi-identifiers, income sensitive, and a simulated web holding the
	// Table IV facts (employment, property holdings).
	sc, err := repro.TableIIScenario(web.GenOptions{})
	check(err)
	fmt.Println("Private enterprise data P (Table II):")
	fmt.Println(sc.P)

	// Internal release: 2-anonymize the quasi-identifiers, suppress income,
	// keep the customer names (the enterprise requirement of Section 1).
	release, err := sc.Release(2, nil)
	check(err)
	fmt.Println("Anonymized internal release P' (Table III):")
	fmt.Println(release)

	fmt.Println("Auxiliary data Q gathered from the web (Table IV):")
	fmt.Println(sc.Q)

	// The attack: fuse P' with Q through the fuzzy inference system.
	phat, before, after, err := sc.Attack(release, nil)
	check(err)
	fmt.Println("Adversary's estimate P̂ = F(P', Q):")
	fmt.Println(phat)

	fmt.Printf("Dissimilarity before fusion (P∘P'): %.4g\n", before)
	fmt.Printf("Dissimilarity after  fusion (P∘P̂): %.4g\n", after)
	fmt.Printf("Information gain G:                 %.4g\n", before-after)
	if after < before {
		fmt.Println("→ the fusion attack moved the adversary closer to the private data.")
	}
	// Output:
	// Private enterprise data P (Table II):
	// Name       InvstVol  InvstAmt  Valuation  Income
	// Alice      8         7         4          91250
	// Bob        5         4         4          74340
	// Christine  4         5         5          75123
	// Robert     9         8         9          98230
	//
	// Anonymized internal release P' (Table III):
	// Name       InvstVol  InvstAmt  Valuation  Income
	// Alice      8.5       7.5       6.5        *
	// Bob        4.5       4.5       4.5        *
	// Christine  4.5       4.5       4.5        *
	// Robert     8.5       7.5       6.5        *
	//
	// Auxiliary data Q gathered from the web (Table IV):
	// Name       Employment          Seniority  PropertyHoldings
	// Alice      CEO, Deutsche Bank  10         3560
	// Bob        Manager, Verizon    4          1200
	// Christine  Assistant, NYU      1          720
	// Robert     CEO, Microsoft      10         5430
	//
	// Adversary's estimate P̂ = F(P', Q):
	// Name       InvstVol  InvstAmt  Valuation  Income
	// Alice      8.5       7.5       6.5        74899.43948195297
	// Bob        4.5       4.5       4.5        65339.256750988905
	// Christine  4.5       4.5       4.5        64691.02521566035
	// Robert     8.5       7.5       6.5        75308.97478433975
	//
	// Dissimilarity before fusion (P∘P'): 3.234e+08
	// Dissimilarity after  fusion (P∘P̂): 2.456e+08
	// Information gain G:                 7.776e+07
	// → the fusion attack moved the adversary closer to the private data.
}

// Example_university reproduces the paper's Section 6 experiment on the
// synthetic faculty cohort: the level sweep behind Figures 4–7 and the FRED
// optimum of Figure 8, printed as aligned series.
func Example_university() {
	const maxK = 16
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 40})
	check(err)
	fmt.Printf("Cohort: %d faculty, salaries in [$%.0f, $%.0f], %d web pages\n\n",
		sc.P.NumRows(), sc.SensitiveRange.Lo, sc.SensitiveRange.Hi, sc.Corpus.Len())

	levels, err := sc.Sweep(2, maxK, nil, nil)
	check(err)
	fmt.Println("Level sweep (Figures 4-7):")
	fmt.Println("   k     P∘P' (before)      P∘P̂ (after)        gain G      utility U")
	for _, lr := range levels {
		fmt.Printf("  %2d   %14.5g   %14.5g   %11.5g   %10.6f\n",
			lr.K, lr.Before, lr.After, lr.Gain, lr.Utility)
	}

	res, err := sc.RunFRED(repro.FREDOptions{MaxK: maxK})
	check(err)
	fmt.Println("\nFRED solution space (Figure 8):")
	fmt.Println("   k        H")
	for i, li := range res.Candidates {
		fmt.Printf("  %2d   %8.4f\n", res.Levels[li].K, res.H[i])
	}
	fmt.Printf("\nOptimal anonymization level: k = %d (H = %.4f)\n", res.OptimalK, res.Hmax)
	fmt.Println("The optimal release keeps identifiers, generalizes reviews, suppresses salary.")
	// Output:
	// Cohort: 40 faculty, salaries in [$40000, $160000], 120 web pages
	//
	// Level sweep (Figures 4-7):
	//    k     P∘P' (before)      P∘P̂ (after)        gain G      utility U
	//    2        6.408e+08       3.3059e+08     3.102e+08     0.012500
	//    3        6.408e+08       3.4031e+08    3.0049e+08     0.008065
	//    4        6.408e+08       3.3248e+08    3.0831e+08     0.006250
	//    5        6.408e+08       3.3774e+08    3.0306e+08     0.005000
	//    6        6.408e+08       3.3757e+08    3.0323e+08     0.003571
	//    7        6.408e+08       3.4141e+08    2.9939e+08     0.002941
	//    8        6.408e+08       3.4821e+08    2.9258e+08     0.003125
	//    9        6.408e+08       3.5259e+08    2.8821e+08     0.002427
	//   10        6.408e+08       3.5167e+08    2.8913e+08     0.002500
	//   11        6.408e+08       3.5263e+08    2.8817e+08     0.001767
	//   12        6.408e+08       3.5501e+08    2.8579e+08     0.001838
	//   13        6.408e+08       3.6079e+08       2.8e+08     0.001873
	//   14        6.408e+08       3.8076e+08    2.6004e+08     0.001147
	//   15        6.408e+08       3.8414e+08    2.5666e+08     0.001176
	//   16        6.408e+08       3.8113e+08    2.5967e+08     0.001202
	//
	// FRED solution space (Figure 8):
	//    k        H
	//    7     0.9150
	//    8     0.9532
	//    9     0.8473
	//   10     0.8577
	//   11     0.7417
	//   12     0.7562
	//   13     0.7692
	//   14     0.6791
	//   15     0.6882
	//   16     0.6884
	//
	// Optimal anonymization level: k = 8 (H = 0.9532)
	// The optimal release keeps identifiers, generalizes reviews, suppresses salary.
}

// Example_financial walks the paper's Section 1 worked example end to end
// with the actual machinery: Table II → generalized Table III via
// full-domain k-anonymity → Table IV gathered from the simulated web →
// fuzzy-fused income estimates, Robert's included.
func Example_financial() {
	p := datagen.TableII()
	fmt.Println("Table II — enterprise data:")
	fmt.Println(p)

	// Table III: generalize the 1-10 investment indexes through interval
	// ladders ([0-5], [5-10], ...) and suppress income.
	gens := make(map[string]hierarchy.Generalizer)
	for _, name := range []string{"InvstVol", "InvstAmt", "Valuation"} {
		l, err := hierarchy.NewLadder(0, 10, 5)
		check(err)
		gens[name] = l
	}
	res, err := kanon.New(gens).AnonymizeDetail(p, 2)
	check(err)
	release := res.Table
	release.SuppressColumn(release.Schema().MustLookup("Income"))
	fmt.Println("Table III — anonymized release (income suppressed, names kept):")
	fmt.Println(release)
	fmt.Printf("Chosen generalization levels: %v\n\n", res.Levels)

	// Table IV: the insider uses the names to search the (simulated) web.
	corpus, err := web.BuildCorpus(datagen.TableIIProfiles(), web.GenOptions{Seed: 2008, Distractors: 25})
	check(err)
	q, err := web.Gather(corpus, release.ColumnStrings(0), web.CorporateLadder, linkage.DefaultMatcher())
	check(err)
	fmt.Println("Table IV — auxiliary data collected by the adversary:")
	fmt.Println(q)

	// Fuse: the Figure 2 system estimates each customer's income.
	incomeRange := fusion.Range{Lo: 40000, Hi: 100000}
	phat, err := fusion.FuseWith(release, fusion.PrepareAux(q), fusion.NewFuzzy(), incomeRange, nil, nil)
	check(err)
	fmt.Println("P̂ — fused income estimates:")
	fmt.Println(phat)

	inc := p.Schema().MustLookup("Income")
	incHat := phat.Schema().MustLookup("Income")
	fmt.Println("Per-customer breach:")
	for i := 0; i < p.NumRows(); i++ {
		name, _ := p.Cell(i, 0).Text()
		truth := p.Cell(i, inc).MustFloat()
		est := phat.Cell(i, incHat).MustFloat()
		fmt.Printf("  %-10s true $%6.0f  estimated $%6.0f  error $%6.0f (%.1f%%)\n",
			name, truth, est, est-truth, 100*math.Abs(est-truth)/truth)
	}
	fmt.Println("\nRobert (valuation in the top band, CEO title, largest property holdings)")
	fmt.Println("gets the highest estimate of the four, but it stays in the middle third")
	fmt.Println("of [$40k, $100k], well below his true income.")
	// Output:
	// Table II — enterprise data:
	// Name       InvstVol  InvstAmt  Valuation  Income
	// Alice      8         7         4          91250
	// Bob        5         4         4          74340
	// Christine  4         5         5          75123
	// Robert     9         8         9          98230
	//
	// Table III — anonymized release (income suppressed, names kept):
	// Name       InvstVol  InvstAmt  Valuation  Income
	// Alice      [0-10]    [0-10]    [0-5]      *
	// Bob        [0-10]    [0-10]    [0-5]      *
	// Christine  [0-10]    [0-10]    [5-10]     *
	// Robert     [0-10]    [0-10]    [5-10]     *
	//
	// Chosen generalization levels: map[InvstAmt:2 InvstVol:2 Valuation:1]
	//
	// Table IV — auxiliary data collected by the adversary:
	// Name       Employment          Seniority  PropertyHoldings
	// Alice      CEO, Deutsche Bank  10         3560
	// Bob        Manager, Verizon    4          1200
	// Christine  Assistant, NYU      1          720
	// Robert     CEO, Microsoft      10         5430
	//
	// P̂ — fused income estimates:
	// Name       InvstVol  InvstAmt  Valuation  Income
	// Alice      [0-10]    [0-10]    [0-5]      69999.99999999999
	// Bob        [0-10]    [0-10]    [0-5]      64899.99999999999
	// Christine  [0-10]    [0-10]    [5-10]     69999.99999999999
	// Robert     [0-10]    [0-10]    [5-10]     75100
	//
	// Per-customer breach:
	//   Alice      true $ 91250  estimated $ 70000  error $-21250 (23.3%)
	//   Bob        true $ 74340  estimated $ 64900  error $ -9440 (12.7%)
	//   Christine  true $ 75123  estimated $ 70000  error $ -5123 (6.8%)
	//   Robert     true $ 98230  estimated $ 75100  error $-23130 (23.5%)
	//
	// Robert (valuation in the top band, CEO title, largest property holdings)
	// gets the highest estimate of the four, but it stays in the middle third
	// of [$40k, $100k], well below his true income.
}

// Example_attacksim compares fusion estimators and probes the attack's
// sensitivity to web noise — the ablation study behind the reproduction's
// extended benches: how much of the breach is the fuzzy machinery, and how
// robust is the pipeline to missing or noisy web data?
func Example_attacksim() {
	const seed, k = 42, 6
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: seed})
	check(err)
	release, err := sc.Release(k, nil)
	check(err)

	fmt.Printf("Attacking the k=%d release of a %d-person cohort.\n\n", k, sc.P.NumRows())
	fmt.Println("Estimator comparison (lower after-dissimilarity = worse breach):")
	fmt.Println("  estimator     P∘P̂ (after)        gain G")
	for _, est := range []fusion.Estimator{fusion.Midpoint{}, fusion.Rank{}, fusion.NewFuzzy()} {
		_, before, after, err := sc.Attack(release, est)
		check(err)
		fmt.Printf("  %-10s  %14.5g   %11.5g\n", est.Name(), after, before-after)
	}

	fmt.Println("\nWeb noise sensitivity (fuzzy estimator):")
	fmt.Println("  missing  typo  propnoise     P∘P̂ (after)        gain G")
	for _, cfg := range []web.GenOptions{
		{},
		{MissingProperty: 0.3, MissingEmployment: 0.3},
		{MissingProperty: 0.7, MissingEmployment: 0.7},
		{NameTypoProb: 0.5},
		{PropertyNoise: 0.4},
		{MissingProperty: 0.5, NameTypoProb: 0.5, PropertyNoise: 0.4},
	} {
		noisy, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: seed, Web: cfg})
		check(err)
		rel, err := noisy.Release(k, nil)
		check(err)
		_, before, after, err := noisy.Attack(rel, nil)
		check(err)
		fmt.Printf("   %4.1f   %4.1f   %6.2f   %14.5g   %11.5g\n",
			cfg.MissingProperty, cfg.NameTypoProb, cfg.PropertyNoise, after, before-after)
	}
	fmt.Println("\nEven with heavy web noise the fused estimate stays below the no-fusion")
	fmt.Println("baseline: the attack degrades gracefully rather than failing.")
	// Output:
	// Attacking the k=6 release of a 40-person cohort.
	//
	// Estimator comparison (lower after-dissimilarity = worse breach):
	//   estimator     P∘P̂ (after)        gain G
	//   midpoint         6.408e+08             0
	//   rank            2.5945e+08    3.8135e+08
	//   fuzzy           2.8202e+08    3.5877e+08
	//
	// Web noise sensitivity (fuzzy estimator):
	//   missing  typo  propnoise     P∘P̂ (after)        gain G
	//     0.0    0.0     0.00       3.3757e+08    3.0323e+08
	//     0.3    0.0     0.00       3.7544e+08    2.6536e+08
	//     0.7    0.0     0.00       3.9838e+08    2.4242e+08
	//     0.0    0.5     0.00       3.4676e+08    2.9403e+08
	//     0.0    0.0     0.40       3.4734e+08    2.9345e+08
	//     0.5    0.5     0.40       3.6759e+08    2.7321e+08
	//
	// Even with heavy web noise the fused estimate stays below the no-fusion
	// baseline: the attack degrades gracefully rather than failing.
}

// Example_riskReport quantifies disclosure record by record, where
// Algorithm 1's dissimilarity measures the whole table: of a static k=4
// release, how many salaries the fusion attack estimates within ±10% and
// ±20%, how often it hits the right salary class, and how well it ranks
// the cohort.
func Example_riskReport() {
	const k = 4
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42})
	check(err)

	release, err := sc.Release(k, nil)
	check(err)
	report, err := sc.Assess(release, nil)
	check(err)
	fmt.Printf("Static k=%d release under the fusion attack:\n  %s\n", k, report)
	// Output:
	// Static k=4 release under the fusion attack:
	//   records 40: ±10% breach 45%, ±20% breach 75%, class hit 62% (midpoint baseline 62%), rank exposure 0.96
}
