// Command corgiserved is the serving plane: a long-lived server that
// accepts concurrent client sessions over a newline-delimited JSON
// protocol (documented in docs/PROTOCOL.md), trains models as queued
// background jobs with admission control and cancellation, and answers
// PREDICT statements at high rates from cached models.
//
// Usage:
//
//	corgiserved -listen 127.0.0.1:7878 \
//	    [-init boot.sql] [-wal waldir/] [-workers 2] [-queue 8] \
//	    [-session-max 2] [-telemetry 127.0.0.1:9090] [-run-root runs/] \
//	    [-retain-jobs 64] [-retain-job-age 15m] [-checkpoint-every 30s|64MB] \
//	    [-replica-listen HOST:PORT] [-replicate-from HOST:PORT] \
//	    [-events events.jsonl] [-events-max-size 16MB] [-slow-statement 1s] \
//	    [-ready-max-lag 0]
//
//	corgiserved -connect HOST:PORT [-replay transcript.txt] [-promote] [-exec "SQL"]
//
// Replication: -replica-listen publishes the catalog's WAL as a
// replication stream (requires -wal); -replicate-from boots the server as
// a read-only replica mirroring that stream into its own WAL directory.
// A replica serves PREDICT and read-only SQL, rejects mutations with
// ERR_READ_ONLY, and becomes a writable primary on PROMOTE (op "promote",
// SQL "PROMOTE", or `corgiserved -connect ADDR -promote`).
// -checkpoint-every compacts the WAL in the background on a time or size
// trigger, the same atomic-rename path as the CHECKPOINT statement.
//
// In server mode, -init runs a semicolon-separated SQL script (typically
// CREATE TABLE statements) against the catalog before the listener opens,
// so clients find tables ready. -telemetry exposes the obs HTTP plane:
// /metrics aggregates device counters across all jobs (plus the WAL
// gauges on durable servers), /run?job=<id> streams one job's live
// per-epoch status, and /healthz and /readyz answer liveness/readiness
// probes — a replica reports ready only while its replication lag is
// within -ready-max-lag. -run-root persists per-job artifacts
// (manifest.json, epochs.jsonl, metrics.prom) as jobs finish.
//
// Introspection: every server answers `SELECT * FROM corgi_jobs` (and
// corgi_sessions, corgi_replication, corgi_events, corgi_spans, ...) over
// the wire, corgi_metrics among them, which reads the server registry
// that -telemetry also serves on /metrics, where a Prometheus scraper
// keeps its series over time; -events additionally appends every structured event as JSONL
// (rotated to FILE.1 past -events-max-size), and -slow-statement flags
// statements past the threshold.
//
// In client mode (-connect), stdin lines (or -replay file lines) starting
// with "C: " are sent verbatim and each response is printed as "S: <json>"
// — the exact framing docs/PROTOCOL.md uses, so a documented transcript
// replays against a live server unchanged. Lines without the prefix are
// treated as raw request lines; blank lines and "#" comments are skipped.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"corgipile/internal/db"
	"corgipile/internal/obs"
	"corgipile/internal/serve"
	"corgipile/internal/sqlparse"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7878", "listen address (port 0 picks a free port)")
		initScript = flag.String("init", "", "run this SQL script against the catalog before serving")
		workers    = flag.Int("workers", 2, "concurrent TRAIN job executors")
		queue      = flag.Int("queue", 8, "pending TRAIN job queue depth (admission control)")
		sessionMax = flag.Int("session-max", 2, "max active (queued+running) jobs per session")
		telemetry  = flag.String("telemetry", "", "serve live telemetry (/metrics, /run?job=<id>, /debug/pprof/) on this address")
		runRoot    = flag.String("run-root", "", "write per-job durable artifacts under this directory")
		walDir     = flag.String("wal", "", "durable catalog: replay and write a WAL under this directory")
		retainJobs = flag.Int("retain-jobs", 0, "finished jobs kept for status queries (default 64)")
		retainAge  = flag.Duration("retain-job-age", 0, "prune finished jobs older than this (default 15m; <0 disables)")
		replListen = flag.String("replica-listen", "", "serve the WAL-shipping replication stream on this address (requires -wal)")
		replFrom   = flag.String("replicate-from", "", "boot as a read-only replica of the primary at this replication address (requires -wal)")
		ckptEvery  = flag.String("checkpoint-every", "", "background WAL compaction trigger: a duration (30s) or a size (64MB)")
		eventsOut  = flag.String("events", "", "append the structured event log as JSONL to this file")
		eventsMax  = flag.String("events-max-size", "", "rotate the -events file to FILE.1 past this size (e.g. 16MB)")
		slowStmt   = flag.Duration("slow-statement", 0, "emit a statement.slow event for statements slower than this")
		readyLag   = flag.Uint64("ready-max-lag", 0, "replica /readyz fails while replication lag (LSNs) exceeds this")
		connect    = flag.String("connect", "", "client mode: connect to a running server instead of serving")
		replay     = flag.String("replay", "", "-connect: replay this transcript file instead of reading stdin")
		execSQL    = flag.String("exec", "", "-connect: send this SQL statement, print the response, and exit")
		promote    = flag.Bool("promote", false, "-connect: send a PROMOTE request and exit")
	)
	flag.Parse()

	if *connect != "" {
		if *promote {
			if err := runPromote(*connect); err != nil {
				fmt.Fprintln(os.Stderr, "corgiserved:", err)
				os.Exit(1)
			}
			return
		}
		if *execSQL != "" {
			if err := runExec(*connect, *execSQL); err != nil {
				fmt.Fprintln(os.Stderr, "corgiserved:", err)
				os.Exit(1)
			}
			return
		}
		if err := runClient(*connect, *replay); err != nil {
			fmt.Fprintln(os.Stderr, "corgiserved:", err)
			os.Exit(1)
		}
		return
	}

	if *replFrom != "" && *initScript != "" {
		fmt.Fprintln(os.Stderr, "corgiserved: -replicate-from and -init are mutually exclusive: a replica's catalog comes from the primary")
		os.Exit(1)
	}
	if (*replFrom != "" || *replListen != "") && *walDir == "" {
		fmt.Fprintln(os.Stderr, "corgiserved: replication requires a durable catalog: set -wal")
		os.Exit(1)
	}
	var ckptDur time.Duration
	var ckptBytes int64
	if *ckptEvery != "" {
		if d, err := time.ParseDuration(*ckptEvery); err == nil {
			ckptDur = d
		} else if n, err := sqlparse.ParseSize(*ckptEvery); err == nil {
			ckptBytes = n
		} else {
			fmt.Fprintf(os.Stderr, "corgiserved: -checkpoint-every %q is neither a duration nor a size\n", *ckptEvery)
			os.Exit(1)
		}
		if *walDir == "" {
			fmt.Fprintln(os.Stderr, "corgiserved: -checkpoint-every requires -wal")
			os.Exit(1)
		}
	}

	if *eventsMax != "" && *eventsOut == "" {
		fmt.Fprintln(os.Stderr, "corgiserved: -events-max-size requires -events")
		os.Exit(1)
	}

	session := db.NewSession()
	// The event ring attaches before recovery so the wal.recovery event
	// (and any sync failures during replay) land in it.
	events := obs.NewEventLog(0)
	if *eventsOut != "" {
		var sink io.WriteCloser
		if *eventsMax != "" {
			max, err := sqlparse.ParseSize(*eventsMax)
			if err != nil {
				fmt.Fprintln(os.Stderr, "corgiserved: -events-max-size:", err)
				os.Exit(1)
			}
			rf, err := obs.NewRotatingFile(*eventsOut, max)
			if err != nil {
				fmt.Fprintln(os.Stderr, "corgiserved: events:", err)
				os.Exit(1)
			}
			sink = rf
		} else {
			f, err := os.OpenFile(*eventsOut, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, "corgiserved: events:", err)
				os.Exit(1)
			}
			sink = f
		}
		defer sink.Close()
		events.StreamTo(sink)
	}
	session.WithEvents(events)
	if *walDir != "" {
		// Recovery runs before -init, so a restarted server finds its
		// previous catalog and the init script is only needed on first boot.
		stats, err := session.OpenWAL(*walDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "corgiserved: wal:", err)
			os.Exit(1)
		}
		fmt.Println("wal:", stats)
	}
	if *initScript != "" {
		sql, err := os.ReadFile(*initScript)
		if err != nil {
			fmt.Fprintln(os.Stderr, "corgiserved:", err)
			os.Exit(1)
		}
		results, err := session.ExecScript(string(sql))
		if err != nil {
			fmt.Fprintln(os.Stderr, "corgiserved: init script:", err)
			os.Exit(1)
		}
		for _, r := range results {
			if r.Message != "" {
				fmt.Println("init:", r.Message)
			}
		}
	}

	srv, err := serve.New(serve.Config{
		Addr:            *listen,
		Workers:         *workers,
		QueueDepth:      *queue,
		SessionMax:      *sessionMax,
		Telemetry:       *telemetry,
		RunRoot:         *runRoot,
		RetainJobs:      *retainJobs,
		RetainJobAge:    *retainAge,
		Session:         session,
		ReplicaListen:   *replListen,
		ReplicateFrom:   *replFrom,
		CheckpointEvery: ckptDur,
		CheckpointBytes: ckptBytes,
		Events:          events,
		SlowStatement:   *slowStmt,
		ReadyMaxLag:     *readyLag,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "corgiserved:", err)
		os.Exit(1)
	}
	fmt.Printf("corgiserved: listening on %s (protocol v%d, %d workers, queue %d)\n",
		srv.Addr(), serve.ProtocolVersion, *workers, *queue)
	if *telemetry != "" {
		fmt.Printf("corgiserved: telemetry on %s\n", srv.TelemetryURL())
	}
	if addr := srv.ReplicaAddr(); addr != "" {
		fmt.Printf("corgiserved: replicating on %s\n", addr)
	}
	if *replFrom != "" {
		fmt.Printf("corgiserved: replica of %s (read-only until PROMOTE)\n", *replFrom)
	}

	// Serve until interrupted; Close cancels in-flight jobs and waits for
	// every session handler to unwind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("corgiserved: shutting down")
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "corgiserved:", err)
		os.Exit(1)
	}
	if err := session.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "corgiserved: wal:", err)
		os.Exit(1)
	}
}

// runExec sends one SQL statement and prints the raw response line — the
// introspection one-liner: corgiserved -connect ADDR -exec "SELECT * FROM
// corgi_jobs".
func runExec(addr, sql string) error {
	conn, err := serve.DialRaw(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	line, err := json.Marshal(serve.Request{Op: "sql", SQL: sql})
	if err != nil {
		return err
	}
	resp, err := conn.DoLine(string(line))
	if err != nil {
		return err
	}
	fmt.Println(resp)
	return nil
}

// runPromote sends a single PROMOTE request — the failover one-liner:
// corgiserved -connect ADDR -promote.
func runPromote(addr string) error {
	c, err := serve.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	resp, err := c.Promote()
	if err != nil {
		return err
	}
	fmt.Println(resp.Message)
	return nil
}

// runClient drives a server from a transcript: each input line is one raw
// request, each response prints prefixed "S: ". The "C: " prefix on input
// is stripped, so docs/PROTOCOL.md transcripts replay verbatim.
func runClient(addr, replayFile string) error {
	in := os.Stdin
	if replayFile != "" {
		f, err := os.Open(replayFile)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	conn, err := serve.DialRaw(addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 4096), serve.MaxLineBytes)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "S:"); ok {
			// Expected-response lines in a transcript are informational;
			// the smoke script diffs actual output against them instead.
			_ = rest
			continue
		}
		line = strings.TrimSpace(strings.TrimPrefix(line, "C:"))
		resp, err := conn.DoLine(line)
		if err != nil {
			return err
		}
		fmt.Println("S:", resp)
	}
	return sc.Err()
}
