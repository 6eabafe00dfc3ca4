package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/db"
	"corgipile/internal/sqlparse"
	"corgipile/internal/storage"
)

// insertRowsSQL builds an INSERT of n rows into the catalog's table name
// that fit tab's schema: ±1 labels for binary tables, class indexes for
// multiclass, anything for regression.
func insertRowsSQL(name string, tab *storage.Table, n int) string {
	rows := make([]string, n)
	for i := range rows {
		vals := make([]string, tab.Features()+1)
		switch tab.Task() {
		case data.TaskMulticlass:
			vals[0] = fmt.Sprint(i % tab.Classes())
		case data.TaskRegression:
			vals[0] = fmt.Sprint(float64(i) / 4)
		default:
			vals[0] = fmt.Sprint(1 - 2*(i%2))
		}
		for f := 1; f < len(vals); f++ {
			vals[f] = fmt.Sprint((i + f) % 11)
		}
		rows[i] = "(" + strings.Join(vals, ", ") + ")"
	}
	return fmt.Sprintf("INSERT INTO %s VALUES %s", name, strings.Join(rows, ", "))
}

// predictCount parses the tuple count out of a PREDICT message.
func predictCount(t *testing.T, resp *Response) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscanf(resp.Message, "PREDICT: %d rows", &n); err != nil {
		t.Fatalf("message %q: %v", resp.Message, err)
	}
	return n
}

// sameAsBruteForce runs one PREDICT over the wire and fails unless columns,
// rows and message are what bruteForce computes. The server must be
// quiescent. It returns the wire response.
func sameAsBruteForce(t *testing.T, srv *Server, c *Client, sql string) *Response {
	t.Helper()
	wire, err := c.Predict(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	rows, msg := bruteForce(t, srv, sql)
	if wire.Message != msg || !reflect.DeepEqual(wire.Columns, []string{"id", "label", "prediction"}) ||
		len(wire.Rows) != len(rows) || (len(rows) > 0 && !reflect.DeepEqual(wire.Rows, rows)) {
		t.Fatalf("%s\nwire:        %q %d rows %v\nbrute force: %q %d rows %v", sql,
			wire.Message, len(wire.Rows), head(wire.Rows), msg, len(rows), head(rows))
	}
	return wire
}

// bruteForce answers a PREDICT the long way: decode the whole table, keep
// the tuples the WHERE admits, score each with the model and print with
// fmt's %g.
func bruteForce(t *testing.T, srv *Server, sql string) (rows [][]string, msg string) {
	t.Helper()
	st, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	p := st.(*sqlparse.Predict)
	srv.catalog.RLock()
	entry, tok := srv.dbs.Table(p.Table)
	m, mok := srv.dbs.Model(p.Model)
	srv.catalog.RUnlock()
	if !tok || !mok {
		t.Fatalf("%s: table or model missing", sql)
	}
	tuples, err := entry.Table.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	task := entry.Table.Task()
	n, correct := 0, 0
	for i := range tuples {
		tp := &tuples[i]
		if p.Where != nil && !admits(p.Where, tp) {
			continue
		}
		pred := m.Model.Predict(m.W, tp)
		n++
		if task != data.TaskRegression && (pred >= 0) == (tp.Label >= 0) && (task != data.TaskMulticlass || pred == tp.Label) {
			correct++
		}
		if p.Limit == 0 || len(rows) < p.Limit {
			rows = append(rows, []string{fmt.Sprintf("%d", tp.ID), fmt.Sprintf("%g", tp.Label), fmt.Sprintf("%g", pred)})
		}
	}
	msg = fmt.Sprintf("PREDICT: %d rows", n)
	if task != data.TaskRegression && n > 0 {
		msg += fmt.Sprintf(", accuracy %.4f", float64(correct)/float64(n))
	}
	return rows, msg
}

// admits evaluates a WHERE predicate on one tuple.
func admits(w *sqlparse.Predicate, tp *data.Tuple) bool {
	v := tp.Label
	if w.Column == "id" {
		v = float64(tp.ID)
	}
	switch w.Op {
	case "=":
		return v == w.Value
	case "!=":
		return v != w.Value
	case "<":
		return v < w.Value
	case "<=":
		return v <= w.Value
	case ">":
		return v > w.Value
	case ">=":
		return v >= w.Value
	}
	panic("operator " + w.Op)
}

func head(rows [][]string) [][]string {
	if len(rows) > 3 {
		return rows[:3]
	}
	return rows
}

// flakySyncer is the WAL write path with two switches: a write that fails
// outright (the statement fails, the log stays usable) and an fsync that
// fails (the statement fails and the log is poisoned).
type flakySyncer struct {
	storage.WriteSyncer
	failWrite, failSync atomic.Bool
}

func (f *flakySyncer) Write(b []byte) (int, error) {
	if f.failWrite.Load() {
		return 0, storage.ErrNoSpace
	}
	return f.WriteSyncer.Write(b)
}

func (f *flakySyncer) Sync() error {
	if f.failSync.Load() {
		return storage.ErrSyncFailed
	}
	return f.WriteSyncer.Sync()
}

// TestPredictMatchesBruteForceAcrossHistory: at every quiescent point of a
// history of appends, model replacements, a table replacement and failed
// INSERTs, every PREDICT shape answers over the wire exactly what decoding
// and scoring the whole table answers, cold and warm.
func TestPredictMatchesBruteForceAcrossHistory(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.libsvm")
	extra := filepath.Join(dir, "extra.libsvm")
	saved := filepath.Join(dir, "alt.model")
	var lines []string
	for i := 0; i < 150; i++ {
		lines = append(lines, fmt.Sprintf("%d 1:%d 7:0.5 18:%d", 1-2*(i%2), i%5, i%3))
	}
	for path, body := range map[string]string{empty: "", extra: strings.Join(lines, "\n") + "\n"} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	sess := db.NewSession()
	var wal *flakySyncer
	if _, err := sess.OpenWALOptions(filepath.Join(dir, "wal"), db.WALOptions{
		WrapSyncer: func(ws storage.WriteSyncer) storage.WriteSyncer {
			wal = &flakySyncer{WriteSyncer: ws}
			return wal
		}}); err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, sql := range []string{
		`CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.05, order='clustered') WITH device='ssd', block_size=16KB`,
		`CREATE TABLE c AS SYNTHETIC(workload='cifar10', scale=0.04, order='clustered') WITH device='ssd', block_size=16KB`,
		`CREATE TABLE r AS SYNTHETIC(workload='yearpred', scale=0.02, order='clustered') WITH device='ssd', block_size=16KB, compress=true`,
		`CREATE TABLE e FROM '` + empty + `' WITH device='ssd'`,
		`SELECT * FROM t TRAIN BY svm MODEL m WITH learning_rate=0.05, max_epoch_num=2, seed=7`,
		`SELECT * FROM t TRAIN BY svm MODEL alt WITH learning_rate=0.5, max_epoch_num=1, seed=3`,
		`SELECT * FROM c TRAIN BY mlp MODEL mc WITH learning_rate=0.05, max_epoch_num=2, seed=7`,
		`SELECT * FROM r TRAIN BY linreg MODEL reg WITH learning_rate=0.001, max_epoch_num=2, seed=7`,
		`SAVE MODEL alt TO '` + saved + `'`,
		`DROP MODEL alt`,
	} {
		if _, err := sess.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	srv, err := New(Config{Addr: "127.0.0.1:0", Session: sess})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	shapes := []string{"%s", "%s LIMIT 0", "%s LIMIT 1", "%s LIMIT 10", "%s LIMIT 100000",
		"WHERE label > 0 %s", "WHERE id >= 37 %s LIMIT 10", "WHERE id < 0 %s", "WHERE label != 1 %s LIMIT 1"}
	pairs := [][2]string{{"t", "m"}, {"c", "mc"}, {"r", "reg"}, {"e", "m"}}
	// check compares every shape on every table, twice, and returns t's count.
	check := func(when string) int {
		t.Helper()
		var n int
		for pass := 0; pass < 2; pass++ {
			for _, p := range pairs {
				for _, shape := range shapes {
					sql := "SELECT * FROM " + p[0] + " " + fmt.Sprintf(shape, "PREDICT BY "+p[1])
					resp := sameAsBruteForce(t, srv, c, sql)
					if p[0] == "t" && shape == "%s" {
						n = predictCount(t, resp)
					}
				}
			}
		}
		if t.Failed() {
			t.Fatalf("diverged %s", when)
		}
		return n
	}
	exec := func(sql string) {
		t.Helper()
		if _, err := c.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	table := func(name string) *storage.Table {
		srv.catalog.RLock()
		defer srv.catalog.RUnlock()
		entry, _ := srv.dbs.Table(name)
		return entry.Table
	}

	n := check("at boot")
	for _, name := range []string{"t", "c", "r"} { // e has no columns to insert into
		exec(insertRowsSQL(name, table(name), 20))
	}
	if got := check("after INSERT"); got != n+20 {
		t.Fatalf("after INSERT: %d tuples, want %d", got, n+20)
	}
	exec(`LOAD INTO t FROM '` + extra + `'`)
	if got := check("after LOAD INTO"); got != n+170 {
		t.Fatalf("after LOAD INTO: %d tuples, want %d", got, n+170)
	}
	n += 170
	if st, err := c.Train(`SELECT * FROM t TRAIN BY svm MODEL m WITH learning_rate=0.2, max_epoch_num=1, seed=9`, true, false); err != nil || st.State != JobDone {
		t.Fatalf("re-TRAIN: %v %+v", err, st)
	}
	check("after re-TRAIN under the same name")
	exec(`DROP MODEL m`)
	exec(`LOAD MODEL m FROM '` + saved + `'`)
	check("after LOAD MODEL under the same name")
	exec(`DROP TABLE t`)
	exec(`CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.03, order='shuffled') WITH device='ssd', block_size=16KB`)
	if n = check("after DROP + CREATE under the same name"); n != 300 {
		t.Fatalf("replaced table: %d tuples, want 300", n)
	}

	wal.failWrite.Store(true)
	if _, err := c.Exec(insertRowsSQL("t", table("t"), 20)); err == nil {
		t.Fatal("INSERT acknowledged although its WAL write failed")
	}
	if got := check("after an INSERT the WAL rejected"); got != n {
		t.Fatalf("rejected INSERT moved the count: %d, want %d", got, n)
	}
	wal.failWrite.Store(false)
	exec(insertRowsSQL("t", table("t"), 20))
	if got := check("after the next good INSERT"); got != n+20 {
		t.Fatalf("good INSERT after a rejected one: %d tuples, want %d", got, n+20)
	}
	wal.failSync.Store(true)
	if _, err := c.Exec(insertRowsSQL("t", table("t"), 20)); err == nil {
		t.Fatal("INSERT acknowledged although its WAL sync failed")
	}
	if got := check("after an INSERT whose sync failed"); got != n+20 {
		t.Fatalf("INSERT with a failed sync moved the count: %d, want %d", got, n+20)
	}
}

// TestPredictConcurrentWithAppendsAndRetrain: four PREDICT connections run
// beside an INSERT stream and a re-TRAIN loop on the served model. Every
// count a PREDICT reports is the initial table plus a whole number of
// INSERTs: at least those acknowledged before it was sent, at most those
// sent by the time it returned. Afterwards the wire agrees with the
// brute-force scorer, so no tally was corrupted on the way.
func TestPredictConcurrentWithAppendsAndRetrain(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			srv := testServer(t, Config{})
			entry, _ := srv.dbs.Table("t")
			initial := entry.Table.NumTuples()
			const inserts, per = 30, 20
			insert := insertRowsSQL("t", entry.Table, per)
			dial := func() *Client {
				c, err := Dial(srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				return c
			}
			var sent, acked atomic.Int64
			done := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				c := dial()
				sql := fmt.Sprintf(`SELECT * FROM t PREDICT BY warm LIMIT %d`, []int{10, 1, 0, 10}[i])
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						lo := acked.Load()
						resp, err := c.Predict(sql)
						hi := sent.Load()
						if err != nil {
							t.Error(err)
							return
						}
						var n int
						fmt.Sscanf(resp.Message, "PREDICT: %d rows", &n)
						if j := int64(n-initial) / per; (n-initial)%per != 0 || j < lo || j > hi {
							t.Errorf("PREDICT counted %d tuples: not %d + %d·j for %d <= j <= %d", n, initial, per, lo, hi)
							return
						}
					}
				}()
			}
			trainer := dial()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seed := 1; ; seed++ {
					select {
					case <-done:
						return
					default:
					}
					sql := fmt.Sprintf(`SELECT * FROM t TRAIN BY svm MODEL warm WITH learning_rate=0.05, max_epoch_num=1, seed=%d`, seed)
					if st, err := trainer.Train(sql, true, false); err != nil || st.State != JobDone {
						t.Errorf("re-TRAIN: %v %+v", err, st)
						return
					}
				}
			}()
			writer := dial()
			var werr error
			for i := 0; i < inserts && werr == nil; i++ {
				sent.Add(1)
				_, werr = writer.Exec(insert)
				acked.Add(1)
			}
			close(done)
			wg.Wait()
			if werr != nil {
				t.Fatal(werr)
			}
			for _, tail := range []string{"", " LIMIT 10"} {
				resp := sameAsBruteForce(t, srv, writer, `SELECT * FROM t PREDICT BY warm`+tail)
				if n := predictCount(t, resp); n != initial+inserts*per {
					t.Fatalf("final count %d, want %d", n, initial+inserts*per)
				}
			}
		})
	}
}

// TestPredictBesideRolledBackInserts: every other INSERT is rejected by the
// WAL and rolled back with TruncateBlocks, while PREDICTs of three shapes and
// a TRAIN loop read the table's one decoded image. The rejected INSERTs carry
// 7 rows and the good ones 20, so a count that includes a rolled-back block —
// or a good block decoded from a rolled-back one's bytes — is not the initial
// table plus a whole number of good INSERTs. Run under -race: the rollback
// cuts the image other goroutines hold views of.
func TestPredictBesideRolledBackInserts(t *testing.T) {
	sess := db.NewSession()
	var wal *flakySyncer
	if _, err := sess.OpenWALOptions(filepath.Join(t.TempDir(), "wal"), db.WALOptions{
		WrapSyncer: func(ws storage.WriteSyncer) storage.WriteSyncer {
			wal = &flakySyncer{WriteSyncer: ws}
			return wal
		}}); err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, sql := range []string{
		`CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.05, order='clustered') WITH device='ssd', block_size=16KB`,
		`SELECT * FROM t TRAIN BY svm MODEL warm WITH learning_rate=0.05, max_epoch_num=2, seed=7`,
	} {
		if _, err := sess.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	srv, err := New(Config{Addr: "127.0.0.1:0", Session: sess})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() *Client {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	entry, _ := srv.dbs.Table("t")
	initial := entry.Table.NumTuples()
	const rounds, good, bad = 25, 20, 7 // at least; the writer goes on until one TRAIN has finished
	var sent, acked, trained atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, tail := range []string{"PREDICT BY warm LIMIT 10", "PREDICT BY warm", "WHERE id >= 0 PREDICT BY warm LIMIT 1"} {
		c, sql := dial(), "SELECT * FROM t "+tail
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				lo := acked.Load()
				resp, err := c.Predict(sql)
				hi := sent.Load()
				if err != nil {
					t.Error(err)
					return
				}
				var n int
				fmt.Sscanf(resp.Message, "PREDICT: %d rows", &n)
				if j := int64(n-initial) / good; (n-initial)%good != 0 || j < lo || j > hi {
					t.Errorf("%s counted %d tuples: not %d + %d·j for %d <= j <= %d", sql, n, initial, good, lo, hi)
					return
				}
			}
		}()
	}
	trainer := dial()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seed := 1; ; seed++ {
			select {
			case <-done:
				return
			default:
			}
			sql := fmt.Sprintf(`SELECT * FROM t TRAIN BY svm MODEL side WITH learning_rate=0.05, max_epoch_num=2, seed=%d`, seed)
			st, err := trainer.Train(sql, true, false)
			// Two failures are the fault's, not the image's: the model's own
			// WAL record meets the rejecting log, and an epoch that started
			// between a rejected INSERT's append and its rollback asks for a
			// block that is gone (TRAIN runs outside the catalog lock and has
			// always failed that way).
			if err != nil || (st.State != JobDone && !strings.Contains(st.Error, "injected no space") && !strings.Contains(st.Error, "out of range")) {
				t.Errorf("TRAIN: %v %+v", err, st)
				return
			}
			if st.State == JobDone {
				trained.Add(1)
			}
		}
	}()
	writer := dial()
	for i := 0; (i < rounds || trained.Load() == 0) && !t.Failed(); i++ {
		wal.failWrite.Store(true)
		if _, err := writer.Exec(insertRowsSQL("t", entry.Table, bad)); err == nil {
			t.Error("INSERT acknowledged although its WAL write failed")
		}
		wal.failWrite.Store(false)
		sent.Add(1)
		if _, err := writer.Exec(insertRowsSQL("t", entry.Table, good)); err != nil {
			t.Error(err)
		}
		acked.Add(1)
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, tail := range []string{"", " LIMIT 10"} {
		resp := sameAsBruteForce(t, srv, writer, `SELECT * FROM t PREDICT BY warm`+tail)
		if n := predictCount(t, resp); n != initial+int(acked.Load())*good {
			t.Fatalf("final count %d, want %d", n, initial+int(acked.Load())*good)
		}
	}
}
