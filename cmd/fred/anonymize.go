package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/dataset"
)

// runAnonymize k-anonymizes a CSV table with a chosen scheme and writes the
// release (sensitive columns suppressed, identifiers retained — the
// enterprise release of the paper's Section 1).
func runAnonymize(args []string) {
	fs := flag.NewFlagSet("fred anonymize", flag.ExitOnError)
	in := fs.String("in", "", "input CSV (two-header layout)")
	out := fs.String("out", "release.csv", "output CSV")
	k := fs.Int("k", 2, "anonymity parameter")
	scheme := fs.String("scheme", "mdav", "mdav, mondrian or kanon")
	keepSensitive := fs.Bool("keep-sensitive", false, "do not suppress sensitive columns")
	fs.Parse(args)
	if *in == "" {
		fs.Usage()
		os.Exit(2)
	}

	t, err := readCSV(*in)
	if err != nil {
		log.Fatal(err)
	}
	anon, err := pickScheme(*scheme, t)
	if err != nil {
		log.Fatal(err)
	}
	release, err := anon.Anonymize(t, *k)
	if err != nil {
		log.Fatal(err)
	}
	if !*keepSensitive {
		for _, c := range release.Schema().IndicesOf(dataset.Sensitive) {
			release.SuppressColumn(c)
		}
	}
	if err := writeCSV(*out, release); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d rows, scheme %s, k=%d\n", *out, release.NumRows(), anon.Name(), *k)
}
