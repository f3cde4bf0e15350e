package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/core/planner"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/metrics"
	"repro/internal/report"
)

// runSweep runs FRED Anonymization (Algorithm 1) over a private table and
// an auxiliary table: it sweeps anonymization levels, simulates the fusion
// attack at each, and emits the fusion-resilient release with the optimal
// level.
//
// The sweep streams: levels print as a live table the moment each completes
// (in k order, even with -workers > 1), so a long sweep on a big cohort
// shows progress instead of going dark until the end. The sweep runs once —
// when -tp and -tu are both zero, the decision calibrates the thresholds
// from the streamed series the way the paper set them "based on
// experimental observations", with no second probe sweep. Calibration needs
// core.MinCalibrationLevels levels P can reach, so a selection with fewer
// exits 2 before any level is computed.
//
// -adaptive, -kset, -stride and -budget switch to the adaptive planner
// (internal/core/planner): with explicit thresholds it scans the levels
// upward to the Tu crossing, checks the skip with utility-only probes at
// bisection's probe points, and prints which ranges it skipped and why;
// -kset / -stride restrict the evaluated set; -budget bounds wall-clock and
// reports the best partial release at the deadline. Adaptive rows print as
// the planner adopts them — ascending k, unless a budget without
// thresholds evaluates endpoints and midpoints first — and the decision
// uses the service's band semantics (both thresholds filter candidacy, no
// Tu truncation), bit-identical to an exhaustive adaptive run of the same
// spec.
//
// -cpuprofile and -memprofile write pprof profiles of the run (the heap
// profile is taken after the sweep, post-GC) for `go tool pprof`. Profiles
// are flushed only on successful exits — error paths leave at most a
// truncated file.
func runSweep(args []string) {
	fs := flag.NewFlagSet("fred sweep", flag.ExitOnError)
	pPath := fs.String("p", "", "private table P CSV")
	qPath := fs.String("q", "", "auxiliary table Q CSV (optional)")
	lo := fs.Float64("lo", 0, "public lower bound of the sensitive attribute")
	hi := fs.Float64("hi", 0, "public upper bound of the sensitive attribute")
	tp := fs.Float64("tp", 0, "protection threshold Tp (0 = auto-calibrate)")
	tu := fs.Float64("tu", 0, "utility threshold Tu (0 = auto-calibrate)")
	minK := fs.Int("mink", 2, "first anonymization level")
	maxK := fs.Int("maxk", 16, "last anonymization level")
	scheme := fs.String("scheme", "mdav", "mdav, mondrian or kanon")
	workers := fs.Int("workers", 0, "parallel sweep workers (0 = NumCPU)")
	out := fs.String("out", "", "optional output CSV for the optimal release")
	literal := fs.Bool("literal-loop", false, "use the pseudocode's literal stopping rule")
	markdown := fs.Bool("markdown", false, "emit the run report as Markdown")
	adaptive := fs.Bool("adaptive", false, "use the adaptive planner (stop at the Tu crossing instead of walking every level)")
	kset := fs.String("kset", "", "comma-separated explicit level set (adaptive; overrides -mink/-maxk)")
	stride := fs.Int("stride", 0, "evaluate every Nth level of the range (adaptive)")
	budget := fs.Duration("budget", 0, "wall-clock budget: stop at the deadline with the best partial release (adaptive)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (taken after the sweep) to this file")
	fs.Parse(args)
	if *pPath == "" || *hi <= *lo {
		fs.Usage()
		os.Exit(2)
	}
	set, err := parseKSet(*kset)
	if err != nil {
		log.Fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile shows retention, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	p, err := readCSV(*pPath)
	if err != nil {
		log.Fatal(err)
	}
	// No scheme anonymizes P's n rows at k > n, so a range past the row
	// count ends there: cap it before anything expands it.
	*maxK = min(*maxK, max(*minK, p.NumRows()))
	// Without thresholds the decision calibrates them from the series: a
	// selection that cannot reach enough levels on P is a usage error,
	// refused before any level is computed. An invalid selection is left to
	// the sweep to report.
	if *tp == 0 && *tu == 0 {
		if ks, err := planner.Expand(*minK, *maxK, *stride, set); err == nil {
			if err := core.CheckCalibratable(ks, p.NumRows()); err != nil {
				fmt.Fprintln(os.Stderr, "fred sweep:", err)
				os.Exit(2)
			}
		}
	}
	var q *dataset.Table
	if *qPath != "" {
		if q, err = readCSV(*qPath); err != nil {
			log.Fatal(err)
		}
	}
	anon, err := pickScheme(*scheme, p)
	if err != nil {
		log.Fatal(err)
	}
	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.NumCPU()
	}
	cfg := core.Config{
		Anonymizer:       anon,
		Attack:           core.AttackConfig{Aux: q, SensitiveRange: fusion.Range{Lo: *lo, Hi: *hi}},
		Tp:               *tp,
		Tu:               *tu,
		MinK:             *minK,
		MaxK:             *maxK,
		LiteralPaperLoop: *literal,
	}

	var res *core.Result
	if *kset != "" || *stride > 1 || *budget > 0 || *adaptive {
		if *literal {
			log.Fatal("fred: -literal-loop applies to the classic range sweep only")
		}
		if *kset != "" && *stride > 1 {
			log.Fatal("fred: -kset and -stride are mutually exclusive")
		}
		res, err = sweepAdaptive(p, cfg, nWorkers, set, *stride, *budget)
	} else {
		res, err = sweepRange(p, cfg, nWorkers)
	}
	if res != nil && *tp == 0 && *tu == 0 {
		fmt.Printf("auto-calibrated thresholds: Tp = %.6g, Tu = %.6g\n", res.Tp, res.Tu)
	}
	if err != nil {
		log.Fatal(err)
	}

	if err := report.WriteFRED(os.Stdout, res, report.Options{Markdown: *markdown}); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		if err := writeCSV(*out, res.Optimal); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote fusion-resilient release to %s\n", *out)
	}
}

// sweepRange is Algorithm 1's loop over cfg's range, printing each level as
// it streams, then core.Decide. With explicit thresholds the stopping rule
// is decidable per level, so the stream halts the sweep the moment it
// fires; under calibration the whole range streams and Decide truncates.
func sweepRange(p *dataset.Table, cfg core.Config, workers int) (*core.Result, error) {
	explicit := cfg.Tp != 0 || cfg.Tu != 0
	fmt.Printf("sweeping k = %d..%d on %d workers\n", cfg.MinK, cfg.MaxK, workers)
	fmt.Printf("%4s  %13s  %13s  %13s  %12s\n", "k", "P∘P' (before)", "P∘P̂ (after)", "gain G", "utility U")
	var levels []core.LevelResult
	err := core.SweepStream(context.Background(), core.NewSweepContext(p, cfg.Attack), core.StreamConfig{
		Anonymizer: cfg.Anonymizer,
		MinK:       cfg.MinK,
		MaxK:       cfg.MaxK,
		Workers:    workers,
		Tp:         cfg.Tp,
	}, func(lr core.LevelResult) error {
		levels = append(levels, lr)
		printLevel(lr)
		if explicit && cfg.StopsAfter(lr) {
			return core.ErrStopSweep
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Println()
	return core.Decide(levels, cfg)
}

// sweepAdaptive executes the sweep through the adaptive planner and decides
// with the band semantics (core.DecideWithin).
func sweepAdaptive(p *dataset.Table, cfg core.Config, workers int, set []int, stride int, budget time.Duration) (*core.Result, error) {
	ks, err := planner.Expand(cfg.MinK, cfg.MaxK, stride, set)
	if err != nil {
		return nil, err
	}
	pcfg := planner.Config{
		Anonymizer:      cfg.Anonymizer,
		Attack:          cfg.Attack,
		Levels:          ks,
		Tp:              cfg.Tp,
		Tu:              cfg.Tu,
		Workers:         workers,
		MinParallelRows: core.MinParallelSweepRows,
		Hooks: planner.Hooks{
			Level: func(lr core.LevelResult, _ bool) { printLevel(lr) },
			Fallback: func(reason string) {
				fmt.Printf("exhaustive fallback: %s\n", reason)
			},
		},
	}
	if budget > 0 {
		pcfg.Deadline = time.Now().Add(budget)
	}
	fmt.Printf("adaptive sweep over %d requested levels on %d workers\n", len(ks), workers)
	fmt.Printf("%4s  %13s  %13s  %13s  %12s\n", "k", "P∘P' (before)", "P∘P̂ (after)", "gain G", "utility U")
	out, err := planner.Run(context.Background(), p, pcfg)
	if err != nil {
		return nil, err
	}
	fmt.Println()
	for _, r := range out.SkippedRanges {
		fmt.Printf("skipped k = %d..%d (%s)\n", r.FromK, r.ToK, r.Reason)
	}
	if out.Partial {
		fmt.Println("budget expired: deciding over the levels evaluated in time")
	}
	fmt.Printf("evaluated %d of %d requested levels\n", out.Evaluated, out.Requested)
	return core.DecideWithin(out.Levels, cfg.Tp, cfg.Tu, metrics.DefaultHOptions())
}

// printLevel prints one row of the live per-k table.
func printLevel(lr core.LevelResult) {
	fmt.Printf("%4d  %13.6g  %13.6g  %13.6g  %12.6g\n",
		lr.K, lr.Before, lr.After, lr.Gain, lr.Utility)
}

// parseKSet parses the -kset flag: comma-separated anonymization levels.
func parseKSet(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, part := range parts {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("fred: bad -kset entry %q", part)
		}
		out = append(out, k)
	}
	return out, nil
}
