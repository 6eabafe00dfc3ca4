package sqlparse

import (
	"reflect"
	"testing"
)

// Round-trip: Parse(Render(Parse(sql))) must equal Parse(sql) structurally.
func TestRenderRoundTrip(t *testing.T) {
	statements := []string{
		`CREATE TABLE t AS SYNTHETIC(workload='higgs', scale=0.5, order='clustered') WITH device='hdd', block_size=64KB`,
		`CREATE TABLE t FROM '/data/x.libsvm' WITH device='ssd'`,
		`SELECT * FROM t TRAIN BY svm MODEL m1 WITH learning_rate=0.1, max_epoch_num=20, shuffle='corgipile'`,
		`SELECT * FROM t WHERE label = -1 TRAIN BY lr`,
		`SELECT * FROM t WHERE id < 100 PREDICT BY m LIMIT 5`,
		`SELECT * FROM t PREDICT BY m`,
		`SHOW TABLES`,
		`SHOW MODELS`,
		`DROP TABLE t`,
		`DROP MODEL m`,
		`EXPLAIN SELECT * FROM t TRAIN BY svm WITH shuffle='no_shuffle'`,
		`EXPLAIN ANALYZE SELECT * FROM t TRAIN BY svm WITH max_epoch_num=2`,
		`EXPLAIN FORMAT JSON SELECT * FROM t TRAIN BY svm`,
		`EXPLAIN ANALYZE FORMAT JSON SELECT * FROM t WHERE id < 100 TRAIN BY lr MODEL m2`,
		`ANALYZE TABLE t WITH model='lr', tolerance=1.2`,
		`SAVE MODEL m TO '/tmp/m.json'`,
		`LOAD MODEL m FROM '/tmp/m.json'`,
		`INSERT INTO t VALUES (1, 0.5, -2.25)`,
		`INSERT INTO t VALUES (-1, 3), (1, 4.5), (0, 0)`,
		`INSERT INTO t VALUES (1, 1e-05, -2.5E+20), (0, 0.00001, 1e21)`, // %g renders these with exponents
		`LOAD INTO t FROM '/data/extra.libsvm'`,
		`CHECKPOINT`,
		`SELECT * FROM t TRAIN BY svm MODEL m2 WITH resume='m1', max_epoch_num=3`,
		`SELECT * FROM corgi_jobs`,
		`SELECT id, state FROM corgi_jobs WHERE state = 'running'`,
		`SELECT * FROM corgi_events WHERE trace_id = 's1-r2' AND type = 'job.done' ORDER BY seq DESC LIMIT 10`,
		`SELECT name, value FROM corgi_metrics WHERE value > 0 ORDER BY name`,
		// A ' inside a string renders between double quotes.
		`CREATE TABLE t FROM "/tmp/o'brien.libsvm"`,
		`SELECT * FROM t TRAIN BY svm WITH note="it's"`,
		`SELECT * FROM corgi_events WHERE detail = "a'b"`,
	}
	for _, sql := range statements {
		first, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		rendered := Render(first)
		second, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(Render(%q)) = Parse(%q): %v", sql, rendered, err)
		}
		// Numeric literals canonicalize (64KB → 65536), so compare the
		// canonical renders: Render∘Parse must be idempotent.
		if again := Render(second); again != rendered {
			t.Fatalf("render not idempotent:\n  sql:      %s\n  rendered: %s\n  again:    %s", sql, rendered, again)
		}
		if !reflect.DeepEqual(stripRaw(first), stripRaw(second)) {
			t.Fatalf("round trip changed statement:\n  sql:      %s\n  rendered: %s\n  first:    %#v\n  second:   %#v",
				sql, rendered, first, second)
		}
	}
}

// stripRaw blanks the Raw field of numeric values so structural comparison
// uses the canonical numeric form.
func stripRaw(st Statement) Statement {
	norm := func(p Params) {
		for k, v := range p {
			if v.IsNum {
				v.Raw = ""
				p[k] = v
			}
		}
	}
	switch st := st.(type) {
	case *CreateTable:
		norm(st.Synthetic)
		norm(st.With)
	case *Train:
		norm(st.Params)
	case *Analyze:
		norm(st.Params)
	case *Explain:
		norm(st.Train.Params)
	}
	return st
}

func TestRenderDeterministicParamOrder(t *testing.T) {
	st := parseOne(t, `SELECT * FROM t TRAIN BY svm WITH b=2, a=1, c=3`)
	a := Render(st)
	b := Render(st)
	if a != b {
		t.Fatal("Render not deterministic")
	}
	if a != `SELECT * FROM t TRAIN BY svm WITH a=1, b=2, c=3` {
		t.Fatalf("Render = %q", a)
	}
}

func TestRenderUnknownStatement(t *testing.T) {
	if Render(nil) != "" {
		t.Fatal("nil statement should render empty")
	}
}
