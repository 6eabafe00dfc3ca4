package db

import (
	"sync/atomic"
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// predictSession is a session holding table t (susy-like, 500 tuples in
// 16 KB blocks) and a model warm trained on it.
func predictSession(t testing.TB, device string) *Session {
	t.Helper()
	s := NewSession()
	for _, sql := range []string{
		`CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.05, order='clustered') WITH device='` + device + `', block_size=16KB`,
		`SELECT * FROM t TRAIN BY svm MODEL warm WITH learning_rate=0.05, max_epoch_num=2, seed=7`,
	} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return s
}

// PREDICT reads the table's decoded image, never the device, so it leaves
// the session's simulated clock where TRAIN left it.
func TestPredictChargesNoIO(t *testing.T) {
	s := predictSession(t, "hdd")
	before := s.Clock().Now()
	for _, sql := range []string{
		`SELECT * FROM t PREDICT BY warm LIMIT 7`,
		`SELECT * FROM t WHERE label > 0 PREDICT BY warm`,
	} {
		mustExec(t, s, sql)
		if now := s.Clock().Now(); now != before {
			t.Fatalf("%s moved the simulated clock from %v to %v", sql, before, now)
		}
	}
}

// countingModel counts Predict calls.
type countingModel struct {
	ml.Model
	calls *atomic.Int64
}

func (m countingModel) Predict(w []float64, t *data.Tuple) float64 {
	m.calls.Add(1)
	return m.Model.Predict(w, t)
}

// TestPredictWorkBounds pins what each kind of PREDICT may cost: Predict
// calls (counted by a wrapper around the models) and decodes (the
// serve.predict.* counters).
func TestPredictWorkBounds(t *testing.T) {
	reg := obs.New()
	s := predictSession(t, "ssd").WithMetrics(reg)
	var calls atomic.Int64
	count := func(model string) { // wrap the catalog's current entry, before it is served
		m, _ := s.Model(model)
		m.Model = countingModel{m.Model, &calls}
	}
	entry, _ := s.Table("t")
	tab := entry.Table
	var fills, blocks, tallied int64
	step := func(what, sql string, wantCalls, wantRows, dFills, dBlocks, dTallied int) {
		t.Helper()
		calls.Store(0)
		res, err := s.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got := int(calls.Load())
		fills, blocks, tallied = fills+int64(dFills), blocks+int64(dBlocks), tallied+int64(dTallied)
		if got != wantCalls || len(res.Rows) != wantRows ||
			reg.Counter(obs.ServePredictFills) != fills ||
			reg.Counter(obs.ServePredictCatchupBlocks) != blocks ||
			reg.Counter(obs.ServePredictTallied) != tallied {
			t.Fatalf("%s: %d Predict calls for %d rows (want %d for %d); fills %d catch-up blocks %d tallied %d (want %d %d %d)",
				what, got, len(res.Rows), wantCalls, wantRows,
				reg.Counter(obs.ServePredictFills), reg.Counter(obs.ServePredictCatchupBlocks),
				reg.Counter(obs.ServePredictTallied), fills, blocks, tallied)
		}
	}
	const limit10 = `SELECT * FROM t PREDICT BY warm LIMIT 10`
	n := tab.NumTuples()
	count("warm")
	step("first PREDICT on a table", limit10, n, 10, 1, 0, n)
	step("warm LIMIT 10", limit10, 10, 10, 0, 0, 0)
	step("warm LIMIT 1", `SELECT * FROM t PREDICT BY warm LIMIT 1`, 1, 1, 0, 0, 0)
	step("warm LIMIT > n", `SELECT * FROM t PREDICT BY warm LIMIT 100000`, n, n, 0, 0, 0)
	step("warm no LIMIT", `SELECT * FROM t PREDICT BY warm`, n, n, 0, 0, 0)
	step("WHERE scans the filtered tuples", `SELECT * FROM t WHERE id < 100 PREDICT BY warm LIMIT 10`, 100, 10, 0, 0, 0)

	before := tab.NumBlocks()
	mustExec(t, s, insertSQL(t, s, "t", 400))
	appended := tab.NumBlocks() - before
	if appended < 2 {
		t.Fatalf("INSERT appended %d blocks, want several", appended)
	}
	step("first PREDICT after an append", limit10, 400+10, 10, 0, appended, 400)
	step("warm again", limit10, 10, 10, 0, 0, 0)
	n += 400

	mustExec(t, s, `SELECT * FROM t TRAIN BY svm MODEL warm WITH learning_rate=0.2, max_epoch_num=1, seed=9`)
	count("warm")
	step("first use of a model version", limit10, n, 10, 0, 0, n)
	step("warm on the new version", limit10, 10, 10, 0, 0, 0)
	mustExec(t, s, `SELECT * FROM t TRAIN BY svm MODEL other WITH learning_rate=0.1, max_epoch_num=1, seed=5`)
	count("other")
	step("LIMIT 0 over a cold tally scores once", `SELECT * FROM t PREDICT BY other LIMIT 0`, n, n, 0, 0, n)
	step("the first model's tally survived", limit10, 10, 10, 0, 0, 0)
}

// A warm PREDICT binds one model workspace per statement and reads a view
// of the image, so what it allocates does not grow with the table: the same
// count over 500 tuples as over 5 000, with and without a WHERE that scores
// every tuple through an MLP. (Both counts are at least 256, so boxing one
// for the message allocates on both sides.)
func TestPredictAllocsIndependentOfTableSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	s := NewSession()
	for _, sql := range []string{
		`CREATE TABLE small AS SYNTHETIC(workload='cifar10', scale=0.1, order='shuffled') WITH device='ram'`,
		`CREATE TABLE big AS SYNTHETIC(workload='cifar10', scale=1, order='shuffled') WITH device='ram'`,
		`SELECT * FROM small TRAIN BY mlp MODEL m WITH max_epoch_num=1, seed=7`,
	} {
		mustExec(t, s, sql)
	}
	small, _ := s.Table("small")
	big, _ := s.Table("big")
	if n, m := small.Table.NumTuples(), big.Table.NumTuples(); 10*n != m {
		t.Fatalf("tables hold %d and %d tuples, want N and 10·N", n, m)
	}
	allocs := func(sql string) float64 {
		mustExec(t, s, sql) // fills the snapshot and the tally
		return testing.AllocsPerRun(20, func() { mustExec(t, s, sql) })
	}
	for _, tail := range []string{"PREDICT BY m LIMIT 10", "WHERE label > 0 PREDICT BY m LIMIT 10"} {
		a, b := allocs("SELECT * FROM small "+tail), allocs("SELECT * FROM big "+tail)
		if a != b {
			t.Errorf("%s allocates %v times over 500 tuples and %v over 5000, want the same", tail, a, b)
		}
	}
}

// BenchmarkSessionPredict measures PREDICT through Session.Exec on a
// 20 000 × 18 table in 64 KB blocks: warm, with a WHERE that scores every
// admitted tuple, and the first statement after a 20-row INSERT (the INSERT
// itself untimed).
func BenchmarkSessionPredict(b *testing.B) {
	const (
		create  = `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=2, order='clustered') WITH device='ram', block_size=64KB`
		limit10 = `SELECT * FROM t PREDICT BY m LIMIT 10`
	)
	s := NewSession()
	exec := func(b *testing.B, sqls ...string) {
		for _, sql := range sqls {
			if _, err := s.Exec(sql); err != nil {
				b.Fatal(err)
			}
		}
	}
	exec(b, create, `SELECT * FROM t TRAIN BY svm MODEL m WITH max_epoch_num=1, seed=7`)
	run := func(b *testing.B, sql string, before func(i int)) {
		exec(b, sql)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if before != nil {
				b.StopTimer()
				before(i)
				b.StartTimer()
			}
			exec(b, sql)
		}
	}
	b.Run("warm_limit10", func(b *testing.B) { run(b, limit10, nil) })
	b.Run("where_limit10", func(b *testing.B) { run(b, `SELECT * FROM t WHERE label > 0 PREDICT BY m LIMIT 10`, nil) })
	insert := insertSQL(b, s, "t", 20)
	b.Run("after_insert20", func(b *testing.B) {
		run(b, limit10, func(i int) {
			if i%1000 == 999 { // keep the table, and the memory it holds, near 20 000 tuples
				exec(b, "DROP TABLE t", create, limit10)
			}
			exec(b, insert)
		})
	})
}
