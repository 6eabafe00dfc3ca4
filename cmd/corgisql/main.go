// Command corgisql is an interactive shell for the in-DB ML stack: the
// paper's SELECT ... TRAIN BY interface over the simulated storage engine.
//
// Usage:
//
//	corgisql              # interactive REPL
//	corgisql -c "SQL..."  # run a script and exit
//	corgisql -metrics [-serve 127.0.0.1:0] [-diag] [-run-dir DIR] ...
//
// With -metrics every TRAIN statement additionally prints a per-epoch
// cross-layer time breakdown (I/O, shuffle, gradient compute); over a table
// created WITH device='hdd' it shows where a run on that device spends its
// simulated time. -serve exposes the session's
// live telemetry over HTTP (/metrics, /run, /debug/pprof/) while TRAIN
// statements execute. -diag tracks convergence diagnostics on every TRAIN
// and reports the verdict in the result message; -run-dir persists the last
// training statement's artifacts (manifest.json, epochs.jsonl, metrics.prom,
// and plan.json for EXPLAIN ANALYZE) on exit. -events records structured
// statement/checkpoint/recovery events to a JSONL file; the same events
// are queryable in-session via SELECT * FROM corgi_events (see also
// corgi_tables, corgi_models, corgi_wal, corgi_metrics, corgi_spans).
//
// Example session:
//
//	> CREATE TABLE higgs AS SYNTHETIC(workload='higgs', scale=0.5,
//	      order='clustered') WITH device='hdd', block_size=256KB;
//	> SELECT * FROM higgs TRAIN BY svm MODEL m1
//	      WITH learning_rate=0.05, max_epoch_num=10, shuffle='corgipile';
//	> SELECT * FROM higgs PREDICT BY m1 LIMIT 5;
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"corgipile/internal/db"
	"corgipile/internal/obs"
)

func main() {
	script := flag.String("c", "", "execute the given SQL script and exit")
	metrics := flag.Bool("metrics", false, "print a per-epoch time breakdown after each TRAIN")
	serve := flag.String("serve", "", "serve live telemetry (/metrics, /run, /debug/pprof/) on this address")
	diag := flag.Bool("diag", false, "enable convergence diagnostics on every TRAIN (verdict in the result message and live feed)")
	runDir := flag.String("run-dir", "", "write durable run artifacts (manifest.json, epochs.jsonl, metrics.prom, plan.json) for the last TRAIN to this directory")
	eventsOut := flag.String("events", "", "record structured events (statement, checkpoint, recovery) and append them as JSONL to this file")
	flag.Parse()

	session := db.NewSession()
	if *eventsOut != "" {
		f, err := os.OpenFile(*eventsOut, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "corgisql:", err)
			os.Exit(1)
		}
		defer f.Close()
		session.WithEvents(obs.NewEventLog(0).StreamTo(f))
	}
	if *metrics || *serve != "" || *runDir != "" {
		session.WithMetrics(obs.New())
	}
	session.WithDiag(*diag)
	// last tracks the most recent result carrying training artifacts (a
	// TRAIN breakdown or an EXPLAIN ANALYZE plan) for -run-dir.
	var last *db.Result
	record := func(results []*db.Result) {
		for _, r := range results {
			if len(r.Breakdown) > 0 || r.Plan != nil {
				last = r
			}
		}
	}
	writeArtifacts := func() {
		if *runDir == "" {
			return
		}
		a := obs.RunArtifacts{
			Manifest: obs.Manifest{Tool: "corgisql", Args: os.Args[1:]},
			Metrics:  session.Metrics(),
		}
		if last != nil {
			a.Epochs, a.Plan = last.Breakdown, last.Plan
		}
		if err := obs.WriteRunDir(*runDir, a); err != nil {
			fmt.Fprintln(os.Stderr, "corgisql:", err)
			return
		}
		fmt.Fprintf(os.Stderr, "corgisql: run artifacts written to %s\n", *runDir)
	}
	if *serve != "" {
		feed := obs.NewRunFeed()
		session.WithFeed(feed)
		srv, err := obs.Serve(obs.ServeConfig{Addr: *serve, Registry: session.Metrics(), Feed: feed})
		if err != nil {
			fmt.Fprintln(os.Stderr, "corgisql:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "corgisql: telemetry on %s\n", srv.URL())
	}
	if *script != "" {
		results, err := session.ExecScript(*script)
		record(results)
		for _, r := range results {
			printResult(r)
		}
		writeArtifacts()
		if err != nil {
			fmt.Fprintln(os.Stderr, "corgisql:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("corgisql — in-DB ML with CorgiPile (simulated storage).")
	fmt.Println(`Try: CREATE TABLE t AS SYNTHETIC(workload='higgs', scale=0.2, order='clustered');`)
	fmt.Println(`     SELECT * FROM t TRAIN BY svm MODEL m1 WITH max_epoch_num=10;`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	fmt.Print("> ")
	for sc.Scan() {
		line := sc.Text()
		pending.WriteString(line)
		pending.WriteString("\n")
		if !strings.Contains(line, ";") {
			fmt.Print("… ")
			continue
		}
		sql := pending.String()
		pending.Reset()
		switch strings.ToLower(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";"))) {
		case "quit", "exit", `\q`:
			writeArtifacts()
			return
		}
		results, err := session.ExecScript(sql)
		record(results)
		for _, r := range results {
			printResult(r)
		}
		if err != nil {
			fmt.Println("error:", err)
		}
		fmt.Printf("[%s]\n> ", session.Clock())
	}
	writeArtifacts()
}

func printResult(r *db.Result) {
	if len(r.Columns) > 0 && len(r.Rows) > 0 {
		widths := make([]int, len(r.Columns))
		for i, c := range r.Columns {
			widths[i] = len(c)
		}
		for _, row := range r.Rows {
			for i, cell := range row {
				if len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		printRow := func(cells []string) {
			for i, cell := range cells {
				fmt.Printf("%-*s  ", widths[i], cell)
			}
			fmt.Println()
		}
		printRow(r.Columns)
		for _, row := range r.Rows {
			printRow(row)
		}
	}
	if r.Message != "" {
		fmt.Println(r.Message)
	}
	if len(r.Breakdown) > 0 {
		if err := obs.WriteEpochTable(os.Stdout, "where the time went", r.Breakdown); err != nil {
			fmt.Fprintln(os.Stderr, "corgisql:", err)
		}
	}
}
