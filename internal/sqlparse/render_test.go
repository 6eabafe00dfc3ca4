package sqlparse

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
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

// Render converts a parsed statement back to SQL text. Parse(Render(st))
// yields an equivalent statement: it is the oracle of the round-trip tests
// and of FuzzParse.
func Render(st Statement) string {
	switch st := st.(type) {
	case *CreateTable:
		var b strings.Builder
		fmt.Fprintf(&b, "CREATE TABLE %s", st.Name)
		if st.Synthetic == nil {
			fmt.Fprintf(&b, " FROM %s", quote(st.SourceFile))
		} else {
			fmt.Fprintf(&b, " AS SYNTHETIC(%s)", renderParams(st.Synthetic))
		}
		if len(st.With) > 0 {
			fmt.Fprintf(&b, " WITH %s", renderParams(st.With))
		}
		return b.String()
	case *Train:
		var b strings.Builder
		fmt.Fprintf(&b, "SELECT * FROM %s%s TRAIN BY %s", st.Table, renderWhere(st.Where), st.ModelType)
		if st.ModelName != "" {
			fmt.Fprintf(&b, " MODEL %s", st.ModelName)
		}
		if len(st.Params) > 0 {
			fmt.Fprintf(&b, " WITH %s", renderParams(st.Params))
		}
		return b.String()
	case *Predict:
		var b strings.Builder
		fmt.Fprintf(&b, "SELECT * FROM %s%s PREDICT BY %s", st.Table, renderWhere(st.Where), st.Model)
		if st.Limit > 0 {
			fmt.Fprintf(&b, " LIMIT %d", st.Limit)
		}
		return b.String()
	case *Select:
		var b strings.Builder
		cols := "*"
		if len(st.Columns) > 0 {
			cols = strings.Join(st.Columns, ", ")
		}
		fmt.Fprintf(&b, "SELECT %s FROM %s", cols, st.Table)
		for i, c := range st.Where {
			if i == 0 {
				b.WriteString(" WHERE ")
			} else {
				b.WriteString(" AND ")
			}
			if c.Value.IsNum {
				fmt.Fprintf(&b, "%s %s %s", c.Column, c.Op, c.Value.Raw)
			} else {
				fmt.Fprintf(&b, "%s %s %s", c.Column, c.Op, quote(c.Value.Raw))
			}
		}
		if st.OrderBy != "" {
			fmt.Fprintf(&b, " ORDER BY %s", st.OrderBy)
			if st.Desc {
				b.WriteString(" DESC")
			}
		}
		if st.Limit > 0 {
			fmt.Fprintf(&b, " LIMIT %d", st.Limit)
		}
		return b.String()
	case *Show:
		return "SHOW " + strings.ToUpper(st.What)
	case *Drop:
		return fmt.Sprintf("DROP %s %s", strings.ToUpper(st.What), st.Name)
	case *Explain:
		out := "EXPLAIN "
		if st.Analyze {
			out += "ANALYZE "
		}
		if st.Format != "" {
			out += "FORMAT " + strings.ToUpper(st.Format) + " "
		}
		return out + Render(st.Train)
	case *Analyze:
		out := "ANALYZE TABLE " + st.Table
		if len(st.Params) > 0 {
			out += " WITH " + renderParams(st.Params)
		}
		return out
	case *SaveModel:
		return fmt.Sprintf("SAVE MODEL %s TO %s", st.Name, quote(st.Path))
	case *LoadModel:
		return fmt.Sprintf("LOAD MODEL %s FROM %s", st.Name, quote(st.Path))
	case *Insert:
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", st.Table)
		for i, row := range st.Rows {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%g", row.Label)
			for _, f := range row.Features {
				fmt.Fprintf(&b, ", %g", f)
			}
			b.WriteString(")")
		}
		return b.String()
	case *LoadTable:
		return fmt.Sprintf("LOAD INTO %s FROM %s", st.Table, quote(st.Path))
	case *Checkpoint:
		return "CHECKPOINT"
	case *Promote:
		return "PROMOTE"
	}
	return ""
}

func renderWhere(p *Predicate) string {
	if p == nil {
		return ""
	}
	return fmt.Sprintf(" WHERE %s %s %g", p.Column, p.Op, p.Value)
}

// renderParams emits key=value pairs in sorted key order for determinism.
func renderParams(p Params) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		v := p[k]
		if v.IsNum {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v.Num))
		} else {
			parts = append(parts, fmt.Sprintf("%s=%s", k, quote(v.Raw)))
		}
	}
	return strings.Join(parts, ", ")
}

// quote renders a string literal. It uses ' unless the text holds one, and
// then ": the lexer never yields a string holding both.
func quote(s string) string {
	if strings.IndexByte(s, '\'') >= 0 {
		return `"` + s + `"`
	}
	return "'" + s + "'"
}
