package main

import (
	"flag"
	"fmt"
	"log"

	"repro"
	"repro/internal/web"
)

// runDatagen writes the reproduction's synthetic datasets as CSV files: the
// private table P and the adversary's web-gathered auxiliary table Q
// (already linked to P's roster).
func runDatagen(args []string) {
	fs := flag.NewFlagSet("fred datagen", flag.ExitOnError)
	scenario := fs.String("scenario", "university", "university, financial or tableii")
	seed := fs.Int64("seed", 42, "generator seed")
	n := fs.Int("n", 0, "roster size (0 = scenario default)")
	pOut := fs.String("p", "p.csv", "output path for the private table P")
	qOut := fs.String("q", "q.csv", "output path for the auxiliary table Q")
	missing := fs.Float64("web-missing", 0, "probability a web attribute is missing")
	typos := fs.Float64("web-typos", 0, "probability a web page typos the subject's name")
	noise := fs.Float64("web-noise", 0, "relative noise on web property values")
	fs.Parse(args)

	opts := repro.ScenarioOptions{
		Seed: *seed,
		N:    *n,
		Web: web.GenOptions{
			MissingEmployment: *missing,
			MissingProperty:   *missing,
			NameTypoProb:      *typos,
			PropertyNoise:     *noise,
		},
	}
	var (
		sc  *repro.Scenario
		err error
	)
	switch *scenario {
	case "university":
		sc, err = repro.UniversityScenario(opts)
	case "financial":
		sc, err = repro.FinancialScenario(opts)
	case "tableii":
		sc, err = repro.TableIIScenario(opts.Web)
	default:
		log.Fatalf("unknown scenario %q", *scenario)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := writeCSV(*pOut, sc.P); err != nil {
		log.Fatal(err)
	}
	if err := writeCSV(*qOut, sc.Q); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d rows) and %s (%d rows); sensitive range [$%.0f, $%.0f]\n",
		*pOut, sc.P.NumRows(), *qOut, sc.Q.NumRows(), sc.SensitiveRange.Lo, sc.SensitiveRange.Hi)
}
