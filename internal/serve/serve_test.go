package serve

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"corgipile/internal/db"
	"corgipile/internal/obs"
	"corgipile/internal/sqlparse"
)

// testServer boots a server on a free port with a small synthetic catalog:
// table "t" (susy-like, 500 tuples) and a pre-trained model "warm" for
// predict tests. Callers get the server and a cleanup-registered address.
func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	session := db.NewSession()
	boot := []string{
		`CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.05, order='clustered') WITH device='ssd', block_size=16KB`,
		`SELECT * FROM t TRAIN BY svm MODEL warm WITH learning_rate=0.05, max_epoch_num=2, seed=7`,
	}
	for _, sql := range boot {
		if _, err := session.Exec(sql); err != nil {
			t.Fatalf("boot catalog: %v", err)
		}
	}
	cfg.Addr = "127.0.0.1:0"
	cfg.Session = session
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// longTrain is a TRAIN statement with a deliberately absurd epoch budget:
// it cannot finish within any test timeout, so it is guaranteed to still
// be running (or queued) when the test cancels it.
func longTrain(model string) string {
	return fmt.Sprintf(
		`SELECT * FROM t TRAIN BY svm MODEL %s WITH learning_rate=0.05, max_epoch_num=1000000, seed=7`, model)
}

// waitState polls one job until it reaches want (or the deadline).
func waitState(t *testing.T, c *Client, job string, want JobState) JobStatus {
	t.Helper()
	var st *JobStatus
	waitCondition(t, fmt.Sprintf("job %s in state %q", job, want), func() bool {
		var err error
		if st, err = c.Status(job, false); err != nil {
			t.Fatalf("status %s: %v", job, err)
		}
		return st.State == want
	})
	return *st
}

func TestHelloAndInlineSQL(t *testing.T) {
	srv := testServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Hello("test")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Server != ServerName || resp.Protocol != ProtocolVersion {
		t.Fatalf("hello = %+v", resp)
	}
	if resp.Session == "" {
		t.Fatal("hello reported no session id")
	}

	res, err := c.Exec(`SHOW TABLES`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "t" {
		t.Fatalf("SHOW TABLES rows = %v", res.Rows)
	}
}

func TestPredictCachedPath(t *testing.T) {
	srv := testServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Predict(`SELECT * FROM t PREDICT BY warm LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(resp.Rows))
	}
	if !strings.Contains(resp.Message, "accuracy") {
		t.Fatalf("message = %q, want accuracy report", resp.Message)
	}
	// A warm repeat answers the same.
	again, err := c.Predict(`SELECT * FROM t PREDICT BY warm LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if again.Message != resp.Message {
		t.Fatalf("warm predict unstable: %q vs %q", again.Message, resp.Message)
	}
}

// A request that read frontier k under the catalog lock while an append was
// landing decodes and answers k blocks, not whatever the table holds when it
// gets to the snapshot; the next request reads k+1 and catches up.
func TestPredictSnapshotServesItsFrontier(t *testing.T) {
	srv := testServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := sqlparse.Parse(`SELECT * FROM t PREDICT BY warm LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	srv.catalog.RLock()
	entry, _ := srv.dbs.Table("t")
	pp, err := srv.dbs.PreparePredict(st.(*sqlparse.Predict))
	k, n := entry.Table.NumBlocks(), entry.Table.NumTuples()
	srv.catalog.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(insertRowsSQL("t", entry.Table, 400)); err != nil {
		t.Fatal(err)
	}
	if entry.Table.NumBlocks() == k {
		t.Fatal("the INSERT appended no block")
	}
	res, err := pp.Run(srv.reg)
	if err != nil {
		t.Fatal(err)
	}
	if got := predictCount(t, resultResponse(res)); got != n {
		t.Fatalf("request at frontier %d saw %d tuples, want %d", k, got, n)
	}
	resp, err := c.Predict(`SELECT * FROM t PREDICT BY warm LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	caught := srv.reg.Counter(obs.ServePredictCatchupBlocks)
	if got := predictCount(t, resp); got != n+400 || caught != int64(entry.Table.NumBlocks()-k) {
		t.Fatalf("next request saw %d tuples and caught up %d blocks, want %d and %d", got, caught, n+400, entry.Table.NumBlocks()-k)
	}
}

// TestConcurrentTrainPredict is the tentpole scenario: two background
// TRAIN jobs execute while several connections hammer PREDICT; every
// predict must succeed and both trains must finish. Run under -race this
// also exercises the catalog-lock discipline.
func TestConcurrentTrainPredict(t *testing.T) {
	srv := testServer(t, Config{Workers: 2, SessionMax: 2})
	ctl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	train := `SELECT * FROM t TRAIN BY svm MODEL m%d WITH learning_rate=0.05, max_epoch_num=50, seed=%d`
	var jobs []string
	for i := 0; i < 2; i++ {
		job, err := ctl.Train(fmt.Sprintf(train, i, i+1), false, false)
		if err != nil {
			t.Fatalf("train %d: %v", i, err)
		}
		if job.State != JobQueued {
			t.Fatalf("submit ack state = %q, want queued", job.State)
		}
		jobs = append(jobs, job.ID)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for n := 0; n < 50; n++ {
				if _, err := c.Predict(`SELECT * FROM t PREDICT BY warm LIMIT 1`); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent predict: %v", err)
	}
	for _, id := range jobs {
		st, err := ctl.Status(id, true)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if st.State != JobDone {
			t.Fatalf("job %s = %+v, want done", id, st)
		}
		if st.Loss == 0 {
			t.Fatalf("job %s reported zero loss", id)
		}
	}
	// The trained models are installed and immediately predictable.
	if _, err := ctl.Predict(`SELECT * FROM t PREDICT BY m0 LIMIT 1`); err != nil {
		t.Fatalf("predict by trained model: %v", err)
	}
}

// TestCancelMidEpochReleasesSlot proves the acceptance criterion: with a
// one-job-per-session cap, cancelling a running TRAIN mid-epoch frees the
// admission slot and the server keeps answering PREDICTs.
func TestCancelMidEpochReleasesSlot(t *testing.T) {
	srv := testServer(t, Config{Workers: 1, SessionMax: 1})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job, err := c.Train(longTrain("doomed"), false, false)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, job.ID, JobRunning)

	// The slot is taken: a second TRAIN from this session must bounce.
	if _, err := c.Train(longTrain("second"), false, false); err == nil {
		t.Fatal("second train admitted past the session cap")
	} else if we, ok := err.(*WireError); !ok || we.Code != ErrSessionBusy {
		t.Fatalf("err = %v, want %s", err, ErrSessionBusy)
	}

	st, err := c.Cancel(job.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobCanceled {
		t.Fatalf("after cancel state = %q, want canceled", st.State)
	}
	if st.Epoch != 0 || st.Loss != 0 {
		t.Fatalf("canceled job leaked progress fields: %+v", st)
	}

	// Slot released: the same session can train again...
	again, err := c.Train(`SELECT * FROM t TRAIN BY svm MODEL second WITH max_epoch_num=2, seed=7`, true, false)
	if err != nil {
		t.Fatalf("train after cancel: %v", err)
	}
	if again.State != JobDone {
		t.Fatalf("post-cancel train = %+v, want done", again)
	}
	// ...and prediction never stopped working.
	if _, err := c.Predict(`SELECT * FROM t PREDICT BY warm LIMIT 1`); err != nil {
		t.Fatalf("predict after cancel: %v", err)
	}
}

// A WITH list TRAIN refuses fails the job the way a bad shuffle value
// does: state failed, with the text a session's Exec returns.
func TestTrainRefusedWithFailsJob(t *testing.T) {
	srv := testServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	local := db.NewSession()
	if _, err := local.Exec(`CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.01)`); err != nil {
		t.Fatal(err)
	}
	for _, with := range []string{`shuffle='sideways'`, `lerning_rate=9`, `seed=0`} {
		sql := `SELECT * FROM t TRAIN BY svm MODEL refused WITH ` + with
		_, want := local.Exec(sql)
		if want == nil {
			t.Fatalf("%s: session accepted it", sql)
		}
		st, err := c.Train(sql, true, false)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if st.State != JobFailed || st.Error != want.Error() {
			t.Errorf("%s: job %s %q, want failed %q", sql, st.State, st.Error, want)
		}
	}
}

// TestAdmissionQueueFull saturates the bounded queue and checks the
// overflow TRAIN is rejected with ERR_QUEUE_FULL rather than blocking.
func TestAdmissionQueueFull(t *testing.T) {
	srv := testServer(t, Config{Workers: 1, QueueDepth: 1, SessionMax: 8})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// First job occupies the single worker; second fills the queue.
	first, err := c.Train(longTrain("a"), false, false)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, first.ID, JobRunning)
	if _, err := c.Train(longTrain("b"), false, false); err != nil {
		t.Fatalf("queued train rejected: %v", err)
	}
	_, err = c.Train(longTrain("c"), false, false)
	if we, ok := err.(*WireError); !ok || we.Code != ErrQueueFull {
		t.Fatalf("err = %v, want %s", err, ErrQueueFull)
	}
}

// TestDroppedConnectionCancelsJobs checks the cleanup path: closing a
// connection with a non-detached TRAIN in flight cancels the job, and the
// server's goroutine count returns to its pre-connection baseline (no
// leaked session handlers or stuck workers).
func TestDroppedConnectionCancelsJobs(t *testing.T) {
	srv := testServer(t, Config{Workers: 1, SessionMax: 1})

	// Let the server settle, then record the goroutine baseline.
	time.Sleep(20 * time.Millisecond) // a settle window: no condition says the server's goroutines are all up
	base := runtime.NumGoroutine()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Train(longTrain("orphan"), false, false)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	waitState(t, ctl, job.ID, JobRunning)

	c.Close() // abrupt drop, no QUIT

	st := waitState(t, ctl, job.ID, JobCanceled)
	if st.State != JobCanceled {
		t.Fatalf("orphaned job = %+v, want canceled", st)
	}

	// The dropped session's handler and the job's executor must unwind.
	// One extra goroutine remains for ctl's session; allow small slack for
	// runtime background goroutines.
	waitCondition(t, fmt.Sprintf("goroutines back to baseline %d (+2)", base), func() bool {
		return runtime.NumGoroutine() <= base+2
	})
}

// TestDetachedJobSurvivesDisconnect checks the opposite contract: a
// detach=true TRAIN keeps running after its session drops and is
// observable from another connection.
func TestDetachedJobSurvivesDisconnect(t *testing.T) {
	srv := testServer(t, Config{Workers: 1})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Train(`SELECT * FROM t TRAIN BY svm MODEL kept WITH max_epoch_num=30, seed=7`, false, true)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	ctl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	st, err := ctl.Status(job.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("detached job = %+v, want done", st)
	}
}

// TestErrorCodes exercises the protocol error surface.
func TestErrorCodes(t *testing.T) {
	srv := testServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cases := []struct {
		req  Request
		code string
	}{
		{Request{Op: "sql", SQL: "FROBNICATE"}, ErrParse},
		{Request{Op: "frobnicate"}, ErrUnknownOp},
		{Request{Op: "train", SQL: "SHOW TABLES"}, ErrBadRequest},
		{Request{Op: "predict", SQL: "SHOW TABLES"}, ErrBadRequest},
		{Request{Op: "cancel", Job: "j999"}, ErrNotFound},
		{Request{Op: "status", Job: "j999"}, ErrNotFound},
		{Request{Op: "sql", SQL: "SELECT * FROM missing PREDICT BY warm"}, ErrNotFound},
		{Request{Op: "sql", SQL: "DROP TABLE missing"}, ErrExec},
	}
	for _, tc := range cases {
		_, err := c.Do(tc.req)
		we, ok := err.(*WireError)
		if !ok || we.Code != tc.code {
			t.Errorf("%+v: err = %v, want code %s", tc.req, err, tc.code)
		}
	}

	// A non-JSON line answers ERR_BAD_REQUEST without killing the session.
	raw, err := c.DoLine("this is not json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(raw, ErrBadRequest) {
		t.Fatalf("raw line response = %s", raw)
	}
	if _, err := c.Hello("still alive"); err != nil {
		t.Fatalf("session died after bad request: %v", err)
	}
}

// TestWrongStatementError pins the exact wire text of op train and op
// predict sent a statement of another kind, for all 14 statement kinds.
func TestWrongStatementError(t *testing.T) {
	srv := testServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cases := []struct{ sql, verb string }{
		{"CREATE TABLE u AS SYNTHETIC(workload='susy', scale=0.05)", "CREATE TABLE"},
		{"SELECT * FROM t TRAIN BY svm MODEL m2", "TRAIN"},
		{"SELECT * FROM t PREDICT BY warm", "PREDICT"},
		{"SELECT * FROM corgi_tables", "SELECT"},
		{"SHOW TABLES", "SHOW"},
		{"EXPLAIN SELECT * FROM t TRAIN BY svm", "EXPLAIN"},
		{"ANALYZE TABLE t", "ANALYZE"},
		{"SAVE MODEL warm TO 'warm.json'", "SAVE MODEL"},
		{"LOAD MODEL m3 FROM 'warm.json'", "LOAD MODEL"},
		{"DROP TABLE t", "DROP"},
		{"INSERT INTO t VALUES (1, 0.5)", "INSERT"},
		{"LOAD INTO t FROM 'more.libsvm'", "LOAD INTO"},
		{"CHECKPOINT", "CHECKPOINT"},
		{"PROMOTE", "PROMOTE"},
	}
	kinds := map[string]bool{}
	for _, tc := range cases {
		st, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		kinds[fmt.Sprintf("%T", st)] = true
		for _, op := range []struct{ name, verb string }{{"train", "TRAIN"}, {"predict", "PREDICT"}} {
			if op.verb == tc.verb {
				continue
			}
			_, err := c.Do(Request{Op: op.name, SQL: tc.sql})
			want := fmt.Sprintf("op %s requires a %s statement, got %s", op.name, op.verb, tc.verb)
			if we, ok := err.(*WireError); !ok || we.Code != ErrBadRequest || we.Message != want {
				t.Errorf("op %s %q: err = %v, want %s %q", op.name, tc.sql, err, ErrBadRequest, want)
			}
		}
	}
	if len(kinds) != 14 {
		t.Fatalf("cases cover %d statement kinds, want 14: %v", len(kinds), kinds)
	}
}

// TestQuit checks the graceful-close handshake.
func TestQuit(t *testing.T) {
	srv := testServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Quit(); err != nil {
		t.Fatalf("quit: %v", err)
	}
}

// TestServerCloseUnblocksClients checks that Close tears down open
// connections rather than leaving clients hanging.
func TestServerCloseUnblocksClients(t *testing.T) {
	srv := testServer(t, Config{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 1)
		conn.Read(buf) // blocks until the server closes the connection
	}()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("client still blocked after server Close")
	}
}
