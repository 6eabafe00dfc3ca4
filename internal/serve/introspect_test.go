package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"corgipile/internal/db"
	"corgipile/internal/obs"
)

// waitCondition polls f until it reports true, failing the test after 20
// seconds. It is the package's one way to wait.
func waitCondition(t *testing.T, what string, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if f() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestIntrospectionE2E is the acceptance scenario: a client submits TRAIN
// over the wire with its own trace ID, a second connection finds the
// running job (with that trace) via SELECT on corgi_jobs mid-run, and
// after a traced run completes, corgi_spans and corgi_events filtered by
// the trace reconstruct the request's timeline — statement, queue time,
// per-epoch spans, model install.
func TestIntrospectionE2E(t *testing.T) {
	srv := testServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A trace-unaware request gets no trace echo (transcript purity).
	resp, err := c.Exec("SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != "" {
		t.Fatalf("untraced request echoed trace %q", resp.Trace)
	}

	// Traced long-running TRAIN: the ack echoes the trace on both the
	// response and the job status.
	resp, err = c.Do(Request{Op: "train", SQL: longTrain("live"), Trace: "trace-live"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != "trace-live" || resp.Job == nil || resp.Job.Trace != "trace-live" {
		t.Fatalf("traced submit ack = %+v (job %+v)", resp, resp.Job)
	}
	jobID := resp.Job.ID

	// Mid-run, from a different connection: the running job is visible in
	// corgi_jobs with its trace ID.
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var row []string
	waitCondition(t, "job running in corgi_jobs", func() bool {
		res, err := c2.Exec(`SELECT * FROM corgi_jobs WHERE state = 'running'`)
		if err != nil {
			t.Fatalf("SELECT corgi_jobs: %v", err)
		}
		for _, r := range res.Rows {
			if r[0] == jobID {
				row = r
				return true
			}
		}
		return false
	})
	// Columns: id, session, model, state, trace_id, epoch, epochs, loss, error, pruned.
	if row[4] != "trace-live" || row[2] != "live" || row[9] != "false" {
		t.Fatalf("running corgi_jobs row = %v, want trace-live/live/not-pruned", row)
	}
	if _, err := c.Cancel(jobID, true); err != nil {
		t.Fatalf("cancel: %v", err)
	}

	// A traced TRAIN to completion, then reconstruct its timeline.
	short := `SELECT * FROM t TRAIN BY svm MODEL fin WITH learning_rate=0.05, max_epoch_num=3, seed=7`
	resp, err = c.Do(Request{Op: "train", SQL: short, Wait: true, Trace: "trace-done"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != "trace-done" || resp.Job.State != JobDone {
		t.Fatalf("waited traced train = %+v (job %+v)", resp, resp.Job)
	}

	res, err := c2.Exec(`SELECT name FROM corgi_spans WHERE trace_id = 'trace-done'`)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range res.Rows {
		counts[r[0]]++
	}
	if counts[obs.EvSpanQueue] != 1 || counts[obs.EvSpanInstall] != 1 ||
		counts[obs.EvSpanStatement] != 1 || counts[obs.EvSpanEpoch] != 3 {
		t.Fatalf("span timeline for trace-done = %v, want 1×queue, 1×install, 1×statement, 3×epoch", counts)
	}

	res, err = c2.Exec(`SELECT type FROM corgi_events WHERE trace_id = 'trace-done' ORDER BY seq`)
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, r := range res.Rows {
		types = append(types, r[0])
	}
	want := []string{obs.EvStatementStart, obs.EvJobQueued, obs.EvJobRunning,
		obs.EvJobDone, obs.EvStatementFinish}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("event timeline for trace-done = %v, want %v", types, want)
	}

	// The canceled job's terminal event carries its trace too.
	res, err = c2.Exec(`SELECT type FROM corgi_events WHERE trace_id = 'trace-live' AND type = 'job.canceled'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("job.canceled events for trace-live = %v, want exactly one", res.Rows)
	}
}

// TestMintedTraceVisible pins that a trace-unaware client's requests are
// still findable: the server mints "<session>-r<n>" traces and corgi_jobs
// always exposes them, even though the wire response omits them.
func TestMintedTraceVisible(t *testing.T) {
	srv := testServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.Train(`SELECT * FROM t TRAIN BY svm MODEL m2 WITH max_epoch_num=1, seed=7`, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace != "" {
		t.Fatalf("wire status leaked minted trace %q", st.Trace)
	}
	res, err := c.Exec(fmt.Sprintf(`SELECT trace_id FROM corgi_jobs WHERE id = '%s'`, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0], "-r") {
		t.Fatalf("corgi_jobs trace for untraced job = %v, want a minted <session>-r<n> id", res.Rows)
	}
}

// TestCorgiSessionsTable lists live connections with request counts.
func TestCorgiSessionsTable(t *testing.T) {
	srv := testServer(t, Config{})
	c1, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	res, err := c1.Exec(`SELECT id, remote, requests FROM corgi_sessions ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("corgi_sessions rows = %v, want 2 live sessions", res.Rows)
	}
	// The querying session has counted at least hello + this SELECT.
	found := false
	for _, r := range res.Rows {
		if r[2] >= "2" && r[1] != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("corgi_sessions rows = %v, want a session with >= 2 requests", res.Rows)
	}

	// Closing a connection removes its row.
	c2.Close()
	waitCondition(t, "closed session to drop out", func() bool {
		res, err := c1.Exec(`SELECT id FROM corgi_sessions`)
		if err != nil {
			t.Fatalf("SELECT corgi_sessions: %v", err)
		}
		return len(res.Rows) == 1
	})
}

// TestCorgiJobsPrunedSummaries pins the retention fix: a job the policy
// pruned still answers "what happened to it" through corgi_jobs (a
// terminal summary row with its trace) and a job.pruned event, while the
// wire status op keeps returning ERR_NOT_FOUND.
func TestCorgiJobsPrunedSummaries(t *testing.T) {
	srv := testServer(t, Config{RetainJobs: 1})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 1; i <= 3; i++ {
		sql := fmt.Sprintf(`SELECT * FROM t TRAIN BY svm MODEL p%d WITH max_epoch_num=1, seed=7`, i)
		resp, err := c.Do(Request{Op: "train", SQL: sql, Wait: true, Trace: fmt.Sprintf("prune-t%d", i)})
		if err != nil {
			t.Fatalf("train %d: %v", i, err)
		}
		if resp.Job.State != JobDone {
			t.Fatalf("train %d state = %s", i, resp.Job.State)
		}
	}

	// Submitting job 3 pruned job 1 (2 finished jobs > cap 1).
	res, err := c.Exec(`SELECT id, state, trace_id, pruned FROM corgi_jobs WHERE pruned = 'true'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no pruned-job summary rows in corgi_jobs")
	}
	r := res.Rows[0]
	if r[0] != "j1" || r[1] != string(JobDone) || r[2] != "prune-t1" {
		t.Fatalf("pruned summary = %v, want j1/done/prune-t1", r)
	}

	// The wire status op still answers ERR_NOT_FOUND for the pruned id.
	if _, err := c.Status("j1", false); wireErrCode(err) != ErrNotFound {
		t.Fatalf("status of pruned job: err %v, want %s", err, ErrNotFound)
	}

	// And the event ring recorded the pruning with the job's trace.
	res, err = c.Exec(`SELECT trace_id FROM corgi_events WHERE type = 'job.pruned'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || res.Rows[0][0] != "prune-t1" {
		t.Fatalf("job.pruned events = %v, want one with trace prune-t1", res.Rows)
	}
}

// TestCorgiReplicationAndPromoteGauges covers the replication system table
// on both roles and the Prometheus exposition across failover: the
// primary's registry exports repl gauges, the replica's own applied/lag
// gauges disappear from the exposition after PROMOTE, and corgi_replication
// renders zero rows on the promoted (now standalone) server.
func TestCorgiReplicationAndPromoteGauges(t *testing.T) {
	primSess := db.NewSession()
	if _, err := primSess.OpenWAL(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{replCreate, replBaseTrain} {
		if _, err := primSess.Exec(sql); err != nil {
			t.Fatalf("boot: %v", err)
		}
	}
	prim, err := New(Config{Addr: "127.0.0.1:0", Session: primSess, ReplicaListen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()

	repSess := db.NewSession()
	if _, err := repSess.OpenWAL(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	rep, err := New(Config{Addr: "127.0.0.1:0", Session: repSess, ReplicateFrom: prim.ReplicaAddr()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	lsn := primSess.LastLSN()
	waitApplied(t, rep, lsn)

	// The primary's view: one connected replica, fully applied.
	pc, err := Dial(prim.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	want := fmt.Sprintf("%d", lsn)
	waitCondition(t, "replica row on primary", func() bool {
		res, err := pc.Exec(`SELECT role, remote, applied_lsn FROM corgi_replication`)
		if err != nil {
			t.Fatalf("SELECT corgi_replication: %v", err)
		}
		return len(res.Rows) == 1 && res.Rows[0][0] == "primary" &&
			res.Rows[0][1] != "" && res.Rows[0][2] == want
	})

	// The replica's view of itself.
	rc, err := Dial(rep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	res, err := rc.Exec(`SELECT role, remote, applied_lsn, lag_lsn FROM corgi_replication`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "replica" ||
		res.Rows[0][1] != prim.ReplicaAddr() || res.Rows[0][2] != want {
		t.Fatalf("corgi_replication on replica = %v, want replica row at lsn %s", res.Rows, want)
	}

	// Replica connect events landed on the primary's ring.
	res, err = pc.Exec(`SELECT type FROM corgi_events WHERE type = 'repl.connect'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("repl.connect events = %v, want one", res.Rows)
	}

	// Prometheus exposition before failover: repl gauges on both sides.
	expo := func(s *Server) string {
		var buf bytes.Buffer
		if err := s.reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if out := expo(prim); !strings.Contains(out, "corgipile_repl_lag_lsn") ||
		!strings.Contains(out, "corgipile_repl_replicas") {
		t.Fatalf("primary exposition missing repl gauges:\n%s", out)
	}
	waitCondition(t, "replica repl gauges", func() bool {
		out := expo(rep)
		return strings.Contains(out, "corgipile_repl_applied_lsn") &&
			strings.Contains(out, "corgipile_repl_lag_lsn")
	})

	// Failover. The promoted server retires its replica gauges so a scrape
	// can't read a stale lag, drops its replica row, and records the event.
	if _, err := rc.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	out := expo(rep)
	if strings.Contains(out, "corgipile_repl_applied_lsn") ||
		strings.Contains(out, "corgipile_repl_lag_lsn") {
		t.Fatalf("promoted replica still exports repl gauges:\n%s", out)
	}
	res, err = rc.Exec(`SELECT * FROM corgi_replication`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("corgi_replication after promote = %v, want no rows", res.Rows)
	}
	res, err = rc.Exec(`SELECT type, detail FROM corgi_events WHERE type = 'promote'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][1], "applied_lsn=") {
		t.Fatalf("promote events = %v, want one with applied_lsn detail", res.Rows)
	}
}

// TestWALGaugesAndProbes covers the telemetry satellites on a durable
// server: the WAL health gauges are on the first /metrics scrape (they are
// read when the registry is, not refreshed by a loop), and /healthz +
// /readyz answer 200 while the WAL is healthy. The replica-lag readiness gate is
// checked through the probe directly (the HTTP rendering of a failing
// probe is pinned by the obs package's own test).
func TestWALGaugesAndProbes(t *testing.T) {
	sess := db.NewSession()
	if _, err := sess.OpenWAL(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Addr: "127.0.0.1:0", Session: sess, Telemetry: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.TelemetryURL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if _, body := get("/metrics"); !strings.Contains(body, "corgipile_wal_size_bytes") ||
		!strings.Contains(body, "corgipile_wal_last_lsn") ||
		!strings.Contains(body, "corgipile_wal_checkpoint_age_seconds") {
		t.Fatalf("first /metrics scrape lacks the WAL gauges:\n%s", body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("/readyz = %d %q", code, body)
	}

	// The replica readiness gate: lag over the threshold fails the probe.
	srv.cfg.ReadyMaxLag = 3
	if err := srv.readyProbe(); err != nil {
		t.Fatalf("standalone server not ready: %v", err)
	}
	sess.SetReadOnly(true) // pose as a replica for the probe
	defer sess.SetReadOnly(false)
	srv.reg.SetGauge(obs.ReplLagLSN, 7)
	if err := srv.readyProbe(); err == nil || !strings.Contains(err.Error(), "lag 7") {
		t.Fatalf("lagging replica probe = %v, want lag error", err)
	}
	srv.reg.SetGauge(obs.ReplLagLSN, 2)
	if err := srv.readyProbe(); err != nil {
		t.Fatalf("caught-up replica probe = %v, want ready", err)
	}
}
