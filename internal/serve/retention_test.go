package serve

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// jobCount snapshots the server's job-map size.
func jobCount(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// The job map must stay bounded under churn: a long-lived server that
// executes many short TRAINs keeps at most RetainJobs finished jobs, while
// every job still completes and installs its model.
func TestJobMapBoundedUnderChurn(t *testing.T) {
	const retain = 3
	srv := testServer(t, Config{
		Workers:      1,
		SessionMax:   1,
		RetainJobs:   retain,
		RetainJobAge: -1, // cap-only: keep the test clock-independent
	})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const churn = 12
	for i := 0; i < churn; i++ {
		sql := fmt.Sprintf(
			`SELECT * FROM t TRAIN BY svm MODEL churn%d WITH learning_rate=0.05, max_epoch_num=1, seed=7`, i)
		st, err := c.Train(sql, true, false)
		if err != nil {
			t.Fatalf("train %d: %v", i, err)
		}
		if st.State != JobDone {
			t.Fatalf("train %d finished in state %q: %s", i, st.State, st.Error)
		}
	}
	if n := jobCount(srv); n > retain+1 {
		// +1: the most recent job may finish after the worker's prune pass.
		t.Fatalf("job map holds %d jobs after %d churned trains, want <= %d", n, churn, retain+1)
	}
	// Every model made it into the catalog even though its job was pruned.
	res, err := c.Exec(`SHOW MODELS`)
	if err != nil {
		t.Fatal(err)
	}
	models := 0
	for _, row := range res.Rows {
		if strings.HasPrefix(row[0], "churn") {
			models++
		}
	}
	if models != churn {
		t.Fatalf("%d churn models in catalog, want %d", models, churn)
	}
	// Pruned jobs answer ERR_NOT_FOUND, like ids that never existed.
	if _, err := c.Status("j1", false); err == nil {
		t.Fatal("status of pruned job j1 should fail")
	}
	// Active jobs survive pruning even when the cap is long exceeded.
	st, err := c.Train(longTrain("keepme"), false, false)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, JobRunning)
	if _, err := c.Status(st.ID, false); err != nil {
		t.Fatalf("running job pruned: %v", err)
	}
	if _, err := c.Cancel(st.ID, true); err != nil {
		t.Fatal(err)
	}
}

// Age-based pruning drops finished jobs on the next pass once they are
// older than RetainJobAge, even far under the count cap.
func TestJobAgePruning(t *testing.T) {
	srv := testServer(t, Config{
		Workers:      1,
		RetainJobs:   1000,
		RetainJobAge: time.Nanosecond,
	})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Train(
		`SELECT * FROM t TRAIN BY svm MODEL aged WITH learning_rate=0.05, max_epoch_num=1, seed=7`, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("job state %q", st.State)
	}
	// The next submission's prune pass collects it.
	if _, err := c.Train(
		`SELECT * FROM t TRAIN BY svm MODEL aged2 WITH learning_rate=0.05, max_epoch_num=1, seed=7`, true, false); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, "the aged jobs pruned", func() bool { return jobCount(srv) <= 1 })
}

// Online ingestion over the wire: the next PREDICT sees an INSERT, and
// TRAIN ... resume folds the new blocks into an incremental job.
func TestIngestAndResumeOverWire(t *testing.T) {
	srv := testServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before, err := c.Predict(`SELECT * FROM t PREDICT BY warm`)
	if err != nil {
		t.Fatal(err)
	}

	// Ingest enough rows over the wire to append whole new blocks (the
	// boot table uses 16KB blocks; susy has 18 features).
	var rows []string
	for i := 0; i < 400; i++ {
		vals := make([]string, 19)
		vals[0] = fmt.Sprintf("%d", 1-2*(i%2))
		for f := 1; f < len(vals); f++ {
			vals[f] = fmt.Sprintf("%d", (i+f)%11)
		}
		rows = append(rows, "("+strings.Join(vals, ", ")+")")
	}
	res, err := c.Exec(`INSERT INTO t VALUES ` + strings.Join(rows, ", "))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "400 tuples") {
		t.Fatalf("INSERT message = %q", res.Message)
	}

	// PREDICT must see the appended tuples immediately.
	after, err := c.Predict(`SELECT * FROM t PREDICT BY warm`)
	if err != nil {
		t.Fatal(err)
	}
	parseRows := func(msg string) int {
		var n int
		if _, err := fmt.Sscanf(msg, "PREDICT: %d rows", &n); err != nil {
			t.Fatalf("message %q", msg)
		}
		return n
	}
	if got, want := parseRows(after.Message), parseRows(before.Message)+400; got != want {
		t.Fatalf("predict after INSERT saw %d rows, want %d", got, want)
	}

	// Incremental training as a background job over the wire.
	st, err := c.Train(
		`SELECT * FROM t TRAIN BY svm MODEL warm2 WITH resume='warm', max_epoch_num=2, seed=7`, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("resume job state %q: %s", st.State, st.Error)
	}
	if _, err := c.Predict(`SELECT * FROM t PREDICT BY warm2 LIMIT 1`); err != nil {
		t.Fatalf("predict by resumed model: %v", err)
	}
}
