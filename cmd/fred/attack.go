package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/fuzzy"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/risk"
)

// runAttack simulates the Web-Based Information-Fusion Attack against a
// release: it fuses the anonymized release with an auxiliary table and
// reports the adversary's estimate and the dissimilarity metrics of the
// paper's Section 6.B.
func runAttack(args []string) {
	fs := flag.NewFlagSet("fred attack", flag.ExitOnError)
	pPath := fs.String("p", "", "private table P (ground truth) CSV")
	relPath := fs.String("release", "", "anonymized release P' CSV")
	qPath := fs.String("q", "", "auxiliary table Q CSV (optional)")
	lo := fs.Float64("lo", 0, "public lower bound of the sensitive attribute")
	hi := fs.Float64("hi", 0, "public upper bound of the sensitive attribute")
	estName := fs.String("estimator", "fuzzy", "fuzzy, rank or midpoint")
	fisPath := fs.String("fis", "", "run a hand-authored fuzzy system from a .fis file instead; input variables must be named after the feature columns (release QIs, then aux.<name>)")
	out := fs.String("out", "", "optional output CSV for the estimate P̂")
	riskReport := fs.Bool("report", false, "print the record-level disclosure risk report")
	fs.Parse(args)
	if *pPath == "" || *relPath == "" || *hi <= *lo {
		fs.Usage()
		os.Exit(2)
	}

	p, err := readCSV(*pPath)
	if err != nil {
		log.Fatal(err)
	}
	release, err := readCSV(*relPath)
	if err != nil {
		log.Fatal(err)
	}
	var q *dataset.Table
	if *qPath != "" {
		if q, err = readCSV(*qPath); err != nil {
			log.Fatal(err)
		}
	}
	var est fusion.Estimator
	if *fisPath != "" {
		fh, err := os.Open(*fisPath)
		if err != nil {
			log.Fatal(err)
		}
		sys, err := fuzzy.ParseFIS(fh)
		fh.Close()
		if err != nil {
			log.Fatal(err)
		}
		m, err := fusion.FeaturesMatrixWith(release, fusion.PrepareAux(q), nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		est = &fusion.FIS{System: sys, FeatureNames: m.Names}
	} else {
		switch *estName {
		case "fuzzy":
			est = fusion.NewFuzzy()
		case "rank":
			est = fusion.Rank{}
		case "midpoint":
			est = fusion.Midpoint{}
		default:
			log.Fatalf("unknown estimator %q", *estName)
		}
	}

	phat, before, after, err := core.Attack(p, release, core.AttackConfig{
		Aux:            q,
		Estimator:      est,
		SensitiveRange: fusion.Range{Lo: *lo, Hi: *hi},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dissimilarity before fusion (P∘P'): %.6g\n", before)
	fmt.Printf("dissimilarity after  fusion (P∘P̂): %.6g\n", after)
	fmt.Printf("information gain G:                  %.6g\n", metrics.InformationGain(before, after))
	if *riskReport {
		a, err := assessRisk(p, phat, *lo, *hi)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("risk: %s\n", a)
	}
	if *out != "" {
		if err := writeCSV(*out, phat); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote estimate to %s\n", *out)
	}
}

// runAssess inspects tables and attack outcomes: per-column summaries of
// any CSV table and the re-identification risk of a release, or (given the
// ground truth and an estimate) the record-level disclosure report.
func runAssess(args []string) {
	fs := flag.NewFlagSet("fred assess", flag.ExitOnError)
	in := fs.String("in", "", "table CSV (ground truth when -est is given)")
	est := fs.String("est", "", "estimate CSV (P̂) to assess against -in")
	lo := fs.Float64("lo", 0, "public lower bound of the sensitive attribute")
	hi := fs.Float64("hi", 0, "public upper bound of the sensitive attribute")
	markdown := fs.Bool("markdown", false, "emit Markdown")
	fs.Parse(args)
	if *in == "" {
		fs.Usage()
		os.Exit(2)
	}

	t, err := readCSV(*in)
	if err != nil {
		log.Fatal(err)
	}
	if *est == "" {
		fmt.Print(dataset.FormatSummary(t))
		mean, max, err := risk.ReidentificationRisk(t)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("re-identification risk: mean %.4f, max %.4f\n", mean, max)
		return
	}

	if *hi <= *lo {
		log.Fatal("assess: -lo and -hi must bound the sensitive attribute")
	}
	phat, err := readCSV(*est)
	if err != nil {
		log.Fatal(err)
	}
	a, err := assessRisk(t, phat, *lo, *hi)
	if err != nil {
		log.Fatal(err)
	}
	if err := report.WriteAssessment(os.Stdout, a, report.Options{Markdown: *markdown}); err != nil {
		log.Fatal(err)
	}
}
