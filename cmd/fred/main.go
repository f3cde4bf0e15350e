// Command fred runs the paper's pipeline, one subcommand a step: generate
// the cohort, anonymize it, run the Section 3 fusion attack, run FRED
// Anonymization (Algorithm 1), and assess the release.
//
// Usage:
//
//	fred datagen -scenario university|financial|tableii [-seed N] [-n N] \
//	     [-p p.csv] [-q q.csv] [-web-missing P] [-web-typos P] [-web-noise F]
//	fred anonymize -in p.csv -out release.csv -k 6 [-scheme mdav|mondrian|kanon] \
//	     [-keep-sensitive]
//	fred attack -p p.csv -release release.csv [-q q.csv] -lo 40000 -hi 160000 \
//	     [-estimator fuzzy|rank|midpoint] [-fis system.fis] [-report] [-out phat.csv]
//	fred assess -in table.csv                   # column summary + re-id risk
//	fred assess -in p.csv -est phat.csv -lo L -hi H [-markdown]
//	                                             # disclosure risk of an estimate
//	fred sweep -p p.csv -q q.csv -lo 40000 -hi 160000 \
//	     [-tp T] [-tu T] [-mink 2] [-maxk 16] [-scheme mdav|mondrian|kanon] \
//	     [-workers N] [-out optimal.csv] [-literal-loop] [-markdown]
//	     [-adaptive] [-kset 2,4,8] [-stride N] [-budget 30s]
//	     [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	fred experiments [-fig all|2|4|5|6|7|8|tables] [-seed N] [-n N] [-maxk K]
//
// CSV files use the two-header layout (column names, then class:kind tags;
// see internal/dataset/csv.go). Every scheme flag takes the same three
// schemes; kanon builds a numeric generalization ladder per
// quasi-identifier from its observed range (base width = range/8).
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/kanon"
	"repro/internal/microagg"
	"repro/internal/mondrian"
	"repro/internal/risk"
)

var commands = []struct {
	name, summary string
	run           func(args []string)
}{
	{"datagen", "generate the private table P and the auxiliary table Q", runDatagen},
	{"anonymize", "k-anonymize a table and write the release", runAnonymize},
	{"attack", "fuse a release with Q and score the adversary's estimate", runAttack},
	{"assess", "summarize a table, or score an estimate's disclosure risk", runAssess},
	{"sweep", "run FRED (Algorithm 1) and write the optimal release", runSweep},
	{"experiments", "print the paper's tables and figure series", runExperiments},
}

func main() {
	log.SetFlags(0)
	if len(os.Args) > 1 {
		for _, c := range commands {
			if c.name == os.Args[1] {
				c.run(os.Args[2:])
				return
			}
		}
	}
	fmt.Fprintln(os.Stderr, "usage: fred <command> [flags]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(os.Stderr, "\nRun 'fred <command> -h' for a command's flags.")
	os.Exit(2)
}

func readCSV(path string) (*dataset.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}

func writeCSV(path string, t *dataset.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := dataset.WriteCSV(f, t); err != nil {
		return err
	}
	return f.Close()
}

// pickScheme is the scheme table every subcommand shares. kanon derives its
// ladders from t, so t is the table the scheme will anonymize.
func pickScheme(name string, t *dataset.Table) (core.Anonymizer, error) {
	switch name {
	case "mdav":
		return microagg.New(), nil
	case "mondrian":
		return mondrian.New(), nil
	case "kanon":
		gens := make(map[string]hierarchy.Generalizer)
		for _, i := range t.Schema().IndicesOf(dataset.QuasiIdentifier) {
			col := t.Schema().Column(i)
			if col.Kind != dataset.Number {
				return nil, fmt.Errorf("kanon CLI scheme supports numeric quasi-identifiers only; %q is text", col.Name)
			}
			vals := t.ColumnFloats(i, 0)
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if hi == lo {
				hi = lo + 1
			}
			l, err := hierarchy.NewLadder(lo, hi, (hi-lo)/8)
			if err != nil {
				return nil, err
			}
			gens[col.Name] = l
		}
		a := kanon.New(gens)
		a.MaxSuppressFraction = 0.05
		return a, nil
	default:
		return nil, fmt.Errorf("unknown scheme %q", name)
	}
}

// assessRisk scores the estimate phat against the ground truth on truth's
// one sensitive column: the record-level disclosure report of attack
// -report and assess -est.
func assessRisk(truth, phat *dataset.Table, lo, hi float64) (*risk.Assessment, error) {
	sens := truth.Schema().NamesOf(dataset.Sensitive)
	if len(sens) != 1 {
		return nil, fmt.Errorf("risk report needs exactly one sensitive column, found %d", len(sens))
	}
	return risk.Assess(truth, phat, sens[0], lo, hi)
}
