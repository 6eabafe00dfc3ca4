package db

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"corgipile/internal/obs"
	"corgipile/internal/sqlparse"
)

// selectQuery runs one SELECT through the full parse+exec path.
func selectQuery(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func TestSelectSystemTables(t *testing.T) {
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.05, order='clustered') WITH device='ssd', block_size=64KB`)
	mustExec(t, s, `SELECT * FROM t TRAIN BY svm MODEL m1 WITH max_epoch_num=2`)

	res := selectQuery(t, s, `SELECT name, device FROM corgi_tables`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "t" || res.Rows[0][1] != "ssd" {
		t.Fatalf("corgi_tables rows = %v", res.Rows)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "name" {
		t.Fatalf("projection columns = %v", res.Columns)
	}

	res = selectQuery(t, s, `SELECT * FROM corgi_models WHERE name = 'm1'`)
	if len(res.Rows) != 1 {
		t.Fatalf("corgi_models rows = %v", res.Rows)
	}
	row := res.Rows[0]
	if row[1] != "svm" || row[2] != "t" || row[5] != "2" {
		t.Fatalf("corgi_models m1 = %v, want kind=svm table=t epochs=2", row)
	}

	// In-memory session: corgi_wal renders the not-durable row, never errors.
	res = selectQuery(t, s, `SELECT durable, last_lsn FROM corgi_wal`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "false" || res.Rows[0][1] != "0" {
		t.Fatalf("corgi_wal rows = %v, want [[false 0]]", res.Rows)
	}

	// No metrics registry, no event log: zero rows, not an error.
	for _, table := range []string{"corgi_metrics", "corgi_events", "corgi_spans"} {
		res = selectQuery(t, s, "SELECT * FROM "+table)
		if len(res.Rows) != 0 {
			t.Fatalf("%s on a bare session = %v, want no rows", table, res.Rows)
		}
	}
}

func TestSelectCorgiMetrics(t *testing.T) {
	s := NewSession()
	reg := obs.New()
	s.WithMetrics(reg)
	reg.Add("test.counter", 3)
	reg.SetGauge("test.gauge", 1.5)

	res := selectQuery(t, s, `SELECT name, kind, value FROM corgi_metrics WHERE name = 'test.counter'`)
	if len(res.Rows) != 1 || res.Rows[0][1] != "counter" || res.Rows[0][2] != "3" {
		t.Fatalf("corgi_metrics counter row = %v", res.Rows)
	}
	res = selectQuery(t, s, `SELECT value FROM corgi_metrics WHERE kind = 'gauge' AND name = 'test.gauge'`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "1.5" {
		t.Fatalf("corgi_metrics gauge row = %v", res.Rows)
	}
}

func TestSelectEval(t *testing.T) {
	s := NewSession()
	s.RegisterVirtual(VirtualTable{
		Name:    "fixture",
		Columns: []string{"id", "name", "score"},
		Rows: func() [][]string {
			return [][]string{
				{"1", "alpha", "10"},
				{"2", "beta", "2"},
				{"3", "gamma", "30"},
				{"4", "delta", "2"},
			}
		},
	})

	// WHERE with numeric comparison.
	res := selectQuery(t, s, `SELECT name FROM fixture WHERE score > 5`)
	if len(res.Rows) != 2 || res.Rows[0][0] != "alpha" || res.Rows[1][0] != "gamma" {
		t.Fatalf("WHERE score > 5 = %v", res.Rows)
	}

	// Conjunctive WHERE.
	res = selectQuery(t, s, `SELECT id FROM fixture WHERE score = 2 AND name != 'beta'`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "4" {
		t.Fatalf("conjunctive WHERE = %v", res.Rows)
	}

	// ORDER BY numeric DESC with LIMIT: ties broken stably.
	res = selectQuery(t, s, `SELECT name, score FROM fixture ORDER BY score DESC LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[0][0] != "gamma" || res.Rows[1][0] != "alpha" {
		t.Fatalf("ORDER BY score DESC LIMIT 2 = %v", res.Rows)
	}

	// ORDER BY lexicographic.
	res = selectQuery(t, s, `SELECT name FROM fixture ORDER BY name`)
	if res.Rows[0][0] != "alpha" || res.Rows[3][0] != "gamma" {
		t.Fatalf("ORDER BY name = %v", res.Rows)
	}

	// SELECT * preserves the declared column order.
	res = selectQuery(t, s, `SELECT * FROM fixture LIMIT 1`)
	if strings.Join(res.Columns, ",") != "id,name,score" {
		t.Fatalf("SELECT * columns = %v", res.Columns)
	}

	// Virtual-table names are case-insensitive.
	if _, err := s.Exec(`SELECT * FROM FIXTURE`); err != nil {
		t.Fatalf("case-insensitive resolution: %v", err)
	}
}

func TestSelectBaseTable(t *testing.T) {
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.01) WITH device='ram'`)

	res := selectQuery(t, s, `SELECT id, label FROM t LIMIT 3`)
	if len(res.Rows) != 3 {
		t.Fatalf("LIMIT 3 returned %d rows", len(res.Rows))
	}
	for i, row := range res.Rows {
		if _, err := strconv.ParseInt(row[0], 10, 64); err != nil {
			t.Fatalf("row %d id %q not an integer", i, row[0])
		}
	}
	// f0 column exists on the materialized relation.
	if _, err := s.Exec(`SELECT f0 FROM t LIMIT 1`); err != nil {
		t.Fatalf("feature column projection: %v", err)
	}
}

func TestSelectErrors(t *testing.T) {
	s := NewSession()
	if _, err := s.Exec(`SELECT * FROM nope`); err == nil ||
		!strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("unknown table error = %v", err)
	}
	s.RegisterVirtual(VirtualTable{Name: "v", Columns: []string{"a"}, Rows: func() [][]string { return nil }})
	if _, err := s.Exec(`SELECT b FROM v`); err == nil ||
		!strings.Contains(err.Error(), "no column") {
		t.Fatalf("unknown projected column error = %v", err)
	}
	if _, err := s.Exec(`SELECT a FROM v WHERE b = 1`); err == nil {
		t.Fatal("unknown WHERE column should error")
	}
	if _, err := s.Exec(`SELECT a FROM v ORDER BY b`); err == nil {
		t.Fatal("unknown ORDER BY column should error")
	}
}

// TestStatementEvents pins the db-layer statement event contract: with an
// event log attached every statement emits start/finish (finish carrying
// duration and, on failure, the error), a slow statement gets a companion
// event past the armed threshold, and the trace ID from ExecStatementT
// stamps all of them — queryable back through corgi_events.
func TestStatementEvents(t *testing.T) {
	s := NewSession()
	el := obs.NewEventLog(64)
	s.WithEvents(el)

	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.01) WITH device='ram'`)
	st, err := sqlparse.Parse(`SELECT * FROM corgi_tables`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecStatementT(st, "req-42"); err != nil {
		t.Fatal(err)
	}

	evs := el.Events()
	var starts, finishes []obs.Event
	for _, ev := range evs {
		switch ev.Type {
		case obs.EvStatementStart:
			starts = append(starts, ev)
		case obs.EvStatementFinish:
			finishes = append(finishes, ev)
		}
	}
	if len(starts) != 2 || len(finishes) != 2 {
		t.Fatalf("got %d starts / %d finishes, want 2/2 (events: %+v)", len(starts), len(finishes), evs)
	}
	if starts[0].Detail != "create_table t" || starts[1].Detail != "select corgi_tables" {
		t.Fatalf("statement kinds = %q, %q", starts[0].Detail, starts[1].Detail)
	}
	if starts[1].Trace != "req-42" || finishes[1].Trace != "req-42" {
		t.Fatalf("trace not threaded: start=%q finish=%q", starts[1].Trace, finishes[1].Trace)
	}
	if starts[0].Trace != "" {
		t.Fatalf("untraced statement carries trace %q", starts[0].Trace)
	}
	if finishes[1].DurMs < 0 || finishes[1].Err != "" {
		t.Fatalf("finish event = %+v, want duration and no error", finishes[1])
	}

	// A failing statement records the error on the finish event.
	bad, err := sqlparse.Parse(`SELECT * FROM missing`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecStatementT(bad, "req-43"); err == nil {
		t.Fatal("expected unknown-table error")
	}
	evs = el.Events()
	last := evs[len(evs)-1]
	if last.Type != obs.EvStatementFinish || last.Err == "" || last.Trace != "req-43" {
		t.Fatalf("failure finish event = %+v", last)
	}

	// Slow-statement companion event with an always-firing threshold.
	el.SetSlowThreshold(time.Nanosecond)
	if _, err := s.ExecStatementT(st, "req-44"); err != nil {
		t.Fatal(err)
	}
	evs = el.Events()
	if evs[len(evs)-1].Type != obs.EvStatementSlow {
		t.Fatalf("last event = %+v, want %s", evs[len(evs)-1], obs.EvStatementSlow)
	}

	// The same events are queryable through corgi_events by trace.
	res := selectQuery(t, s, `SELECT type, trace_id FROM corgi_events WHERE trace_id = 'req-42'`)
	if len(res.Rows) != 2 {
		t.Fatalf("corgi_events for req-42 = %v, want start+finish", res.Rows)
	}
}

// TestSelectDoesNotAliasProvider pins that a SELECT result is detached
// from the provider's backing array: filtering is in-place over a copy,
// so two queries against the same virtual table don't corrupt each other.
func TestSelectDoesNotAliasProvider(t *testing.T) {
	s := NewSession()
	backing := [][]string{{"1"}, {"2"}, {"3"}}
	s.RegisterVirtual(VirtualTable{
		Name:    "v",
		Columns: []string{"n"},
		Rows: func() [][]string {
			out := make([][]string, len(backing))
			copy(out, backing)
			return out
		},
	})
	first := selectQuery(t, s, `SELECT n FROM v WHERE n >= 2`)
	second := selectQuery(t, s, `SELECT n FROM v`)
	if len(first.Rows) != 2 || len(second.Rows) != 3 {
		t.Fatalf("rows = %d then %d, want 2 then 3", len(first.Rows), len(second.Rows))
	}
}
