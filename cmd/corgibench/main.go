// Command corgibench regenerates the paper's tables and figures, and
// profiles where training time goes.
//
// Usage:
//
//	corgibench [-scale 1.0] [-list] [experiment ...]
//	corgibench -metrics [-workload higgs] [-strategy corgipile] [-device hdd]
//	           [-epochs 5] [-double] [-trace-out trace.jsonl]
//	           [-serve 127.0.0.1:0] [-diag] [-explain] [-run-dir DIR]
//	corgibench -faults [-out BENCH_faults.json] [-stamp-time RFC3339]
//	corgibench -compare BENCH_faults.json
//
// With no experiment arguments (or "all") it runs the full suite. Each
// experiment prints the rows/series of the corresponding paper artifact;
// EXPERIMENTS.md maps ids to the paper.
//
// With -metrics it instead runs one instrumented training pass and prints
// the per-epoch cross-layer breakdown — I/O time, bytes read, seek
// fraction, cache hit-rate, shuffle fill time, gradient-compute time, and
// loss — followed by the run's raw counter totals. -trace-out additionally
// streams the same data (plus every span) as JSONL for offline analysis;
// -serve exposes the live run over HTTP (/metrics, /run, /debug/pprof/)
// while it executes.
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
	"corgipile/internal/obs"
	"corgipile/internal/shuffle"
)

func main() {
	var (
		scale     = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = full synthetic size)")
		list      = flag.Bool("list", false, "list available experiments and exit")
		metrics   = flag.Bool("metrics", false, "run one instrumented pass and print the per-epoch time breakdown")
		faults    = flag.Bool("faults", false, "run the fault-injection sweep (fault rate x retry budget) and exit")
		outFile   = flag.String("out", "", "-faults: also write the JSON report to this file")
		workload  = flag.String("workload", "higgs", "-metrics: synthetic workload name")
		strategy  = flag.String("strategy", "corgipile", "-metrics: shuffle strategy")
		device    = flag.String("device", "hdd", "-metrics: device profile (hdd, ssd, ram)")
		epochs    = flag.Int("epochs", 5, "-metrics: training epochs")
		double    = flag.Bool("double", false, "-metrics: enable double buffering")
		traceOut  = flag.String("trace-out", "", "write the JSONL event trace to this file")
		serve     = flag.String("serve", "", "serve live telemetry (/metrics, /run, /debug/pprof/) on this address during -metrics")
		diag      = flag.Bool("diag", false, "-metrics: enable convergence diagnostics (grad norm, plateau/divergence verdict)")
		explain   = flag.Bool("explain", false, "-metrics: profile the executor plan and print the annotated EXPLAIN ANALYZE tree")
		runDir    = flag.String("run-dir", "", "-metrics: write durable run artifacts (manifest.json, epochs.jsonl, metrics.prom) to this directory")
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

	if *metrics {
		opts := bench.ProfileOptions{
			Workload:     *workload,
			Strategy:     shuffle.Kind(*strategy),
			Epochs:       *epochs,
			Device:       *device,
			DoubleBuffer: *double,
			Diag:         *diag,
			Explain:      *explain,
			RunDir:       *runDir,
		}
		// The experiment suite runs at scale 1.0 by default; profiles want
		// quick turnaround, so -metrics keeps Scale 0 (a smaller dataset)
		// unless the user set -scale explicitly.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scale" {
				opts.Scale = *scale
			}
		})
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			opts.TraceOut = f
		}
		if *serve != "" {
			reg := obs.New()
			opts.Registry = reg
			feed := obs.NewRunFeed()
			srv, err := obs.Serve(obs.ServeConfig{Addr: *serve, Registry: reg, Feed: feed})
			if err != nil {
				fatal(err)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "corgibench: telemetry on %s\n", srv.URL())
			opts.Feed = feed
		}
		if err := bench.Profile(os.Stdout, opts); err != nil {
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
