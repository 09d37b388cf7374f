// Command benchrunner regenerates the paper's tables and figures.
//
// Usage:
//
//	benchrunner -list
//	benchrunner -exp fig10 -sf 0.02
//	benchrunner -exp all -sf 0.02 -buffersize 1024
//	benchrunner -exp all -short        # CI-grade: tiny SF, skip Slow experiments
//
// Each experiment prints the rows/series of the corresponding artifact of
// Zhou & Ross (SIGMOD 2004) from the simulated machine. The output is
// deterministic and does not depend on which experiments ran before:
// `-sf 0.005 -exp <id>` prints internal/bench/testdata/<id>.golden. See
// EXPERIMENTS.md for paper-vs-measured notes. The per-operator EXPLAIN
// ANALYZE view of one statement is `bufferdb -analyze [-no-refine] -q`.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bufferdb/internal/bench"
)

func main() {
	var (
		sf         = flag.Float64("sf", 0.02, "TPC-H scale factor (paper: 0.2)")
		exp        = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list       = flag.Bool("list", false, "list experiments and exit")
		bufferSize = flag.Int("buffersize", 0, "buffer operator capacity (0 = 1024)")
		threshold  = flag.Float64("threshold", 0, "cardinality threshold (0 = calibrate)")
		seed       = flag.Uint64("seed", 0, "data generation seed (0 = default)")
		short      = flag.Bool("short", false, "CI-grade run: clamp the scale factor and skip slow experiments with -exp all")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	start := time.Now()
	runner, err := bench.NewRunner(bench.Config{
		ScaleFactor:          *sf,
		Seed:                 *seed,
		BufferSize:           *bufferSize,
		CardinalityThreshold: *threshold,
		Short:                *short,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("database: TPC-H SF %g, refinement threshold %.0f rows (setup %.1fs)\n\n",
		runner.Cfg.ScaleFactor, runner.Threshold, time.Since(start).Seconds())

	var toRun []bench.Experiment
	if *exp == "all" {
		for _, e := range bench.Experiments() {
			if *short && e.Slow {
				continue
			}
			toRun = append(toRun, e)
		}
	} else {
		e, ok := bench.FindExperiment(*exp)
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (try -list)", *exp))
		}
		toRun = []bench.Experiment{e}
	}
	for _, e := range toRun {
		t0 := time.Now()
		rep, err := e.Run(runner)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Print(rep.String())
		fmt.Printf("(%.1fs)\n\n", time.Since(t0).Seconds())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrunner:", err)
	os.Exit(1)
}
