package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/datagen"
	"repro/internal/hierarchy"
	"repro/internal/kanon"
	"repro/internal/linkage"
	"repro/internal/web"
)

// runExperiments regenerates every table and figure of the paper's
// evaluation (Section 6) plus the worked example of Section 1, printing the
// same series the paper plots.
func runExperiments(args []string) {
	fs := flag.NewFlagSet("fred experiments", flag.ExitOnError)
	fig := fs.String("fig", "all", "which figure to regenerate: all, tables, 2, 4, 5, 6, 7, 8")
	seed := fs.Int64("seed", 42, "scenario seed")
	n := fs.Int("n", 40, "university cohort size")
	maxK := fs.Int("maxk", 16, "largest anonymization level")
	fs.Parse(args)

	switch *fig {
	case "all":
		tables()
		fig2()
		sweepFigs(*seed, *n, *maxK, "4", "5", "6", "7")
		fig8(*seed, *n, *maxK)
	case "tables":
		tables()
	case "2":
		fig2()
	case "4", "5", "6", "7":
		sweepFigs(*seed, *n, *maxK, *fig)
	case "8":
		fig8(*seed, *n, *maxK)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		fs.Usage()
		os.Exit(2)
	}
}

// tables prints the Section 1 worked example: Tables I-IV.
func tables() {
	fmt.Println("== Table I: sensitive database ==")
	fmt.Println(datagen.TableI())

	p := datagen.TableII()
	fmt.Println("== Table II: enterprise data ==")
	fmt.Println(p)

	gens := make(map[string]hierarchy.Generalizer)
	for _, name := range []string{"InvstVol", "InvstAmt", "Valuation"} {
		l, err := hierarchy.NewLadder(0, 10, 5)
		if err != nil {
			log.Fatal(err)
		}
		gens[name] = l
	}
	res, err := kanon.New(gens).AnonymizeDetail(p, 2)
	if err != nil {
		log.Fatal(err)
	}
	release := res.Table
	release.SuppressColumn(release.Schema().MustLookup("Income"))
	fmt.Println("== Table III: anonymized enterprise data (k=2 generalization) ==")
	fmt.Println(release)

	corpus, err := web.BuildCorpus(datagen.TableIIProfiles(), web.GenOptions{Seed: 2008, Distractors: 25})
	if err != nil {
		log.Fatal(err)
	}
	q, err := web.Gather(corpus, release.ColumnStrings(0), web.CorporateLadder, linkage.DefaultMatcher())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Table IV: auxiliary data collected by the adversary ==")
	fmt.Println(q)
}

// fig2 prints the structure of the fuzzy inference system (the paper's
// Figure 2) and demonstrates it on the Robert anecdote.
func fig2() {
	fmt.Println("== Figure 2: fuzzy inference system ==")
	sc, err := repro.TableIIScenario(web.GenOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Inputs : release QIs (InvstVol, InvstAmt, Valuation on [1,10])")
	fmt.Println("         web aux (Seniority on [1,10], PropertyHoldings on [200,8000])")
	fmt.Printf("Output : %s in [$%.0f, $%.0f], terms low/med/high\n",
		sc.SensitiveCol, sc.SensitiveRange.Lo, sc.SensitiveRange.Hi)
	fmt.Println("Rules  : IF x IS t THEN income IS t for every input x and term t,")
	fmt.Println("         uniform weights (Section 6.A); Mamdani min-AND, max-aggregation,")
	fmt.Println("         centroid defuzzification.")

	release, err := sc.Release(2, nil)
	if err != nil {
		log.Fatal(err)
	}
	phat, _, _, err := sc.Attack(release, nil)
	if err != nil {
		log.Fatal(err)
	}
	inc := phat.Schema().MustLookup("Income")
	truth := sc.P.Schema().MustLookup("Income")
	fmt.Println("\nPer-customer estimates on the Table II data:")
	for i := 0; i < phat.NumRows(); i++ {
		name, _ := phat.Cell(i, 0).Text()
		fmt.Printf("  %-10s estimated $%7.0f   true $%7.0f\n",
			name, phat.Cell(i, inc).MustFloat(), sc.P.Cell(i, truth).MustFloat())
	}
	fmt.Println()
}

// sweepFigs prints the level-sweep series behind Figures 4-7.
func sweepFigs(seed int64, n, maxK int, figs ...string) {
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: seed, N: n})
	if err != nil {
		log.Fatal(err)
	}
	levels, err := sc.Sweep(2, maxK, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	want := map[string]bool{}
	for _, f := range figs {
		want[f] = true
	}
	if want["4"] {
		fmt.Println("== Figure 4: dissimilarity before fusion (P∘P') vs k ==")
		fmt.Println("k\tP∘P'")
		for _, lr := range levels {
			fmt.Printf("%d\t%.6g\n", lr.K, lr.Before)
		}
		fmt.Println()
	}
	if want["5"] {
		fmt.Println("== Figure 5: dissimilarity after fusion (P∘P̂) vs k ==")
		fmt.Println("k\tP∘P̂")
		for _, lr := range levels {
			fmt.Printf("%d\t%.6g\n", lr.K, lr.After)
		}
		fmt.Println()
	}
	if want["6"] {
		fmt.Println("== Figure 6: information gain G = (P∘P') − (P∘P̂) vs k ==")
		fmt.Println("k\tG")
		for _, lr := range levels {
			fmt.Printf("%d\t%.6g\n", lr.K, lr.Gain)
		}
		fmt.Println()
	}
	if want["7"] {
		fmt.Println("== Figure 7: utility U_k = 1/C_DM(k) vs k ==")
		fmt.Println("k\tU")
		for _, lr := range levels {
			fmt.Printf("%d\t%.6g\n", lr.K, lr.Utility)
		}
		fmt.Println()
	}
}

// fig8 runs FRED and prints the weighted objective over the solution space.
func fig8(seed int64, n, maxK int) {
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: seed, N: n})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sc.RunFRED(repro.FREDOptions{MaxK: maxK})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Figure 8: weighted sum of protection and utility H vs k ==")
	fmt.Printf("(auto-calibrated thresholds: Tp = %.6g, Tu = %.6g; W1 = W2 = 0.5)\n", res.Tp, res.Tu)
	fmt.Println("k\tH")
	for i, li := range res.Candidates {
		fmt.Printf("%d\t%.4f\n", res.Levels[li].K, res.H[i])
	}
	fmt.Printf("\noptimal k = %d (H = %.4f)\n", res.OptimalK, res.Hmax)
}
