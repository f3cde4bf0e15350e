// Command attack simulates the Web-Based Information-Fusion Attack against
// a release: it fuses the anonymized release with an auxiliary table and
// reports the adversary's estimate and the dissimilarity metrics of the
// paper's Section 6.B.
//
// Usage:
//
//	attack -p p.csv -release release.csv [-q q.csv] -lo 40000 -hi 160000 \
//	       [-estimator fuzzy|rank|midpoint] [-out phat.csv]
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
	"repro/internal/risk"
)

func main() {
	log.SetFlags(0)
	pPath := flag.String("p", "", "private table P (ground truth) CSV")
	relPath := flag.String("release", "", "anonymized release P' CSV")
	qPath := flag.String("q", "", "auxiliary table Q CSV (optional)")
	lo := flag.Float64("lo", 0, "public lower bound of the sensitive attribute")
	hi := flag.Float64("hi", 0, "public upper bound of the sensitive attribute")
	estName := flag.String("estimator", "fuzzy", "fuzzy, rank or midpoint")
	fisPath := flag.String("fis", "", "run a hand-authored fuzzy system from a .fis file instead; input variables must be named after the feature columns (release QIs, then aux.<name>)")
	out := flag.String("out", "", "optional output CSV for the estimate P̂")
	report := flag.Bool("report", false, "print the record-level disclosure risk report")
	flag.Parse()
	if *pPath == "" || *relPath == "" || *hi <= *lo {
		flag.Usage()
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
		sys, err := fuzzy.ParseFIS(fh, fuzzy.Options{})
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
	if *report {
		sens := p.Schema().NamesOf(dataset.Sensitive)
		if len(sens) != 1 {
			log.Fatalf("risk report needs exactly one sensitive column, found %d", len(sens))
		}
		a, err := risk.Assess(p, phat, sens[0], *lo, *hi)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("risk: %s\n", a)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := dataset.WriteCSV(f, phat); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote estimate to %s\n", *out)
	}
}

func readCSV(path string) (*dataset.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}
