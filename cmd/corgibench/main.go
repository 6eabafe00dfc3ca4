// Command corgibench regenerates the paper's tables and figures.
//
// Usage:
//
//	corgibench [-scale 1.0] [-list] [experiment ...]
//	corgibench -faults [-out BENCH_faults.json] [-stamp-time RFC3339]
//	corgibench -compare BENCH_faults.json
//
// With no experiment arguments (or "all") it runs the full suite. Each
// experiment prints the rows/series of the corresponding paper artifact;
// EXPERIMENTS.md maps ids to the paper.
//
// To see where one run's time goes, train it with corgisql -metrics over a
// table created WITH device='hdd' (or corgitrain -metrics).
//
// With -compare it re-runs the fault sweep behind the committed
// BENCH_faults.json baseline and exits 1 if any cell moved.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"corgipile/internal/bench"
)

func main() {
	var (
		scale     = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = full synthetic size)")
		list      = flag.Bool("list", false, "list available experiments and exit")
		faults    = flag.Bool("faults", false, "run the fault-injection sweep (fault rate x retry budget) and exit")
		outFile   = flag.String("out", "", "-faults: also write the JSON report to this file")
		compare   = flag.String("compare", "", "re-run the fault sweep behind this BENCH_faults.json baseline and report regressions")
		stampTime = flag.String("stamp-time", "", "-faults: RFC 3339 timestamp to stamp the report with (default: now)")
	)
	flag.Parse()

	if *compare != "" {
		regressions, err := bench.Compare(os.Stdout, *compare)
		if err != nil {
			fatal(err)
		}
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %-10s %s\n", e.ID, "("+e.Paper+")", e.Title)
		}
		return
	}

	if *faults {
		var out *os.File
		if *outFile != "" {
			f, err := os.Create(*outFile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		var w io.Writer
		if out != nil {
			w = out
		}
		now := time.Now()
		if *stampTime != "" {
			t, err := time.Parse(time.RFC3339, *stampTime)
			if err != nil {
				fatal(fmt.Errorf("-stamp-time: %w", err))
			}
			now = t
		}
		if err := bench.FaultSweep(os.Stdout, w, bench.NewStamp(now)); err != nil {
			fatal(err)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		if err := bench.RunAll(os.Stdout, *scale); err != nil {
			fatal(err)
		}
		return
	}
	for _, id := range ids {
		if err := bench.Run(os.Stdout, id, *scale); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corgibench:", err)
	os.Exit(1)
}
