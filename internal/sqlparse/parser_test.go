package sqlparse

import (
	"reflect"
	"strings"
	"testing"
)

func parseOne(t *testing.T, sql string) Statement {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st
}

func TestParseCreateSynthetic(t *testing.T) {
	st := parseOne(t, `CREATE TABLE higgs AS SYNTHETIC(workload='higgs', scale=0.1, order='clustered') WITH device='hdd', block_size=10MB, compress=false;`)
	ct, ok := st.(*CreateTable)
	if !ok {
		t.Fatalf("wrong statement type %T", st)
	}
	if ct.Name != "higgs" {
		t.Fatalf("name = %q", ct.Name)
	}
	if ct.Synthetic.Str("workload", "") != "higgs" {
		t.Fatal("workload param lost")
	}
	if ct.Synthetic.Num("scale", 0) != 0.1 {
		t.Fatal("scale param lost")
	}
	if ct.With.Str("device", "") != "hdd" {
		t.Fatal("device param lost")
	}
	if got := ct.With.Num("block_size", 0); got != 10<<20 {
		t.Fatalf("block_size = %v, want %d", got, 10<<20)
	}
	if ct.With.Bool("compress", true) {
		t.Fatal("compress=false parsed wrong")
	}
}

func TestParseCreateFromFile(t *testing.T) {
	st := parseOne(t, `CREATE TABLE t FROM '/data/higgs.libsvm' WITH device='ssd'`)
	ct := st.(*CreateTable)
	if ct.SourceFile != "/data/higgs.libsvm" {
		t.Fatalf("source file = %q", ct.SourceFile)
	}
}

func TestParseTrain(t *testing.T) {
	st := parseOne(t, `SELECT * FROM higgs TRAIN BY svm MODEL m1 WITH learning_rate=0.1, max_epoch_num=20, buffer_fraction=0.1, shuffle='corgipile', batch_size=1;`)
	tr, ok := st.(*Train)
	if !ok {
		t.Fatalf("wrong type %T", st)
	}
	if tr.Table != "higgs" || tr.ModelType != "svm" || tr.ModelName != "m1" {
		t.Fatalf("train parsed wrong: %+v", tr)
	}
	if tr.Params.Num("learning_rate", 0) != 0.1 || tr.Params.Num("max_epoch_num", 0) != 20 {
		t.Fatal("params lost")
	}
	if tr.Params.Str("shuffle", "") != "corgipile" {
		t.Fatal("shuffle param lost")
	}
}

func TestParseTrainMinimal(t *testing.T) {
	st := parseOne(t, `SELECT * FROM t TRAIN BY lr`)
	tr := st.(*Train)
	if tr.ModelType != "lr" || tr.ModelName != "" || len(tr.Params) != 0 {
		t.Fatalf("minimal train parsed wrong: %+v", tr)
	}
}

func TestParsePredict(t *testing.T) {
	st := parseOne(t, `SELECT * FROM t PREDICT BY m1 LIMIT 10;`)
	pr := st.(*Predict)
	if pr.Table != "t" || pr.Model != "m1" || pr.Limit != 10 {
		t.Fatalf("predict parsed wrong: %+v", pr)
	}
}

func TestParseShowAndDrop(t *testing.T) {
	if parseOne(t, "SHOW TABLES").(*Show).What != "tables" {
		t.Fatal("show tables")
	}
	if parseOne(t, "show models;").(*Show).What != "models" {
		t.Fatal("show models")
	}
	d := parseOne(t, "DROP TABLE t1").(*Drop)
	if d.What != "table" || d.Name != "t1" {
		t.Fatal("drop table")
	}
	d = parseOne(t, "DROP MODEL m1;").(*Drop)
	if d.What != "model" || d.Name != "m1" {
		t.Fatal("drop model")
	}
}

func TestParseInsert(t *testing.T) {
	st := parseOne(t, `INSERT INTO t VALUES (1, 0.5, -2), (-1, 3.25, 4)`)
	ins, ok := st.(*Insert)
	if !ok {
		t.Fatalf("wrong type %T", st)
	}
	if ins.Table != "t" || len(ins.Rows) != 2 {
		t.Fatalf("insert parsed wrong: %+v", ins)
	}
	r0 := ins.Rows[0]
	if r0.Label != 1 || len(r0.Features) != 2 || r0.Features[0] != 0.5 || r0.Features[1] != -2 {
		t.Fatalf("row 0 = %+v", r0)
	}
	if ins.Rows[1].Label != -1 {
		t.Fatalf("row 1 = %+v", ins.Rows[1])
	}
}

func TestParseInsertErrors(t *testing.T) {
	for _, sql := range []string{
		`INSERT INTO t VALUES (1)`,          // no features
		`INSERT INTO t VALUES (1, 'x')`,     // non-numeric
		`INSERT INTO t VALUES ()`,           // empty row
		`INSERT INTO t VALUES (1, 2`,        // unclosed
		`INSERT t VALUES (1, 2)`,            // missing INTO
		`INSERT INTO t (1, 2)`,              // missing VALUES
		`INSERT INTO t VALUES (1, 2), (3,)`, // dangling comma
	} {
		if _, err := Parse(sql); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", sql)
		}
	}
}

// Exponent literals are numbers wherever a number is; a unit suffix is still
// a size literal, and the two do not combine.
func TestParseExponentLiterals(t *testing.T) {
	pass := []struct {
		sql  string
		want []float64 // the first row's label and features, or the WITH value
	}{
		{`INSERT INTO t VALUES (1e-05, 2E3)`, []float64{1e-05, 2000}},
		{`INSERT INTO t VALUES (-1.5e+2, 1e0)`, []float64{-150, 1}},
		{`INSERT INTO t VALUES (1, 6.02E23), (0, 1e-300)`, []float64{1, 6.02e23}},
		{`INSERT INTO t VALUES (0, 1e05)`, []float64{0, 100000}},
		{`SELECT * FROM t TRAIN BY svm WITH learning_rate=1e-3`, []float64{0.001}},
		{`CREATE TABLE t FROM 'f' WITH block_size=10MB`, []float64{10 << 20}},
		{`CREATE TABLE t FROM 'f' WITH block_size=8KB`, []float64{8 << 10}},
	}
	for _, tc := range pass {
		st, err := Parse(tc.sql)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.sql, err)
			continue
		}
		var got []float64
		switch st := st.(type) {
		case *Insert:
			got = append([]float64{st.Rows[0].Label}, st.Rows[0].Features...)
		case *Train:
			got = []float64{st.Params["learning_rate"].Num}
		case *CreateTable:
			got = []float64{st.With["block_size"].Num}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q) read %v, want %v", tc.sql, got, tc.want)
		}
	}
	fail := []string{
		`INSERT INTO t VALUES (1, 1e)`,      // no exponent digits
		`INSERT INTO t VALUES (1, 1e+)`,     // sign but no digits
		`INSERT INTO t VALUES (1, 1e-)`,     //
		`INSERT INTO t VALUES (1, 1.2.3e4)`, // two points
		`INSERT INTO t VALUES (1, 1e5MB)`,   // unit on an exponent literal
		`INSERT INTO t VALUES (1, 1e5e5)`,   //
		`INSERT INTO t VALUES (1, e5)`,      // a word, not a number
		`INSERT INTO t VALUES (1, 1e 5)`,    // the exponent must be attached
		`CREATE TABLE t FROM 'f' WITH block_size=1e5MB`,
		`SELECT * FROM t PREDICT BY m LIMIT 1e2`, // LIMIT takes an integer
	}
	for _, sql := range fail {
		if st, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) = %#v, want an error", sql, st)
		}
	}
}

func TestParseLoadInto(t *testing.T) {
	st := parseOne(t, `LOAD INTO t FROM '/data/extra.libsvm'`)
	lt, ok := st.(*LoadTable)
	if !ok {
		t.Fatalf("wrong type %T", st)
	}
	if lt.Table != "t" || lt.Path != "/data/extra.libsvm" {
		t.Fatalf("load into parsed wrong: %+v", lt)
	}
	// The LOAD MODEL form must still parse to the model statement.
	if _, ok := parseOne(t, `LOAD MODEL m FROM '/tmp/m.json'`).(*LoadModel); !ok {
		t.Fatal("LOAD MODEL no longer parses")
	}
	if _, err := Parse(`LOAD t FROM 'x'`); err == nil || !strings.Contains(err.Error(), "MODEL or INTO") {
		t.Fatalf("bad LOAD error: %v", err)
	}
}

func TestParseCheckpoint(t *testing.T) {
	if _, ok := parseOne(t, `CHECKPOINT`).(*Checkpoint); !ok {
		t.Fatal("CHECKPOINT did not parse")
	}
	if _, ok := parseOne(t, `checkpoint;`).(*Checkpoint); !ok {
		t.Fatal("lowercase checkpoint did not parse")
	}
	if _, err := Parse(`CHECKPOINT now`); err == nil {
		t.Fatal("trailing input after CHECKPOINT accepted")
	}
}

func TestParsePromote(t *testing.T) {
	if _, ok := parseOne(t, `PROMOTE`).(*Promote); !ok {
		t.Fatal("PROMOTE did not parse")
	}
	if _, ok := parseOne(t, `promote;`).(*Promote); !ok {
		t.Fatal("lowercase promote did not parse")
	}
	if _, err := Parse(`PROMOTE now`); err == nil {
		t.Fatal("trailing input after PROMOTE accepted")
	}
	if got := Render(&Promote{}); got != "PROMOTE" {
		t.Fatalf("Render(Promote) = %q", got)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	st := parseOne(t, `select * from T train by SVM with Learning_Rate=0.5`)
	tr := st.(*Train)
	if tr.ModelType != "svm" || tr.Params.Num("learning_rate", 0) != 0.5 {
		t.Fatalf("case-insensitive parse failed: %+v", tr)
	}
}

func TestParseComments(t *testing.T) {
	st := parseOne(t, "-- train a model\nSELECT * FROM t TRAIN BY svm")
	if _, ok := st.(*Train); !ok {
		t.Fatal("comment handling broken")
	}
}

func TestParseAllScript(t *testing.T) {
	script := `
		CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.05, order='clustered');
		SELECT * FROM t TRAIN BY svm MODEL m WITH max_epoch_num=2;
		SELECT * FROM t PREDICT BY m LIMIT 5;
	`
	stmts, err := ParseAll(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("parsed %d statements, want 3", len(stmts))
	}
}

func TestParseAllSemicolonInString(t *testing.T) {
	stmts, err := ParseAll(`CREATE TABLE t FROM 'a;b.libsvm'; SHOW TABLES;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("parsed %d statements, want 2", len(stmts))
	}
	if stmts[0].(*CreateTable).SourceFile != "a;b.libsvm" {
		t.Fatal("semicolon inside string mishandled")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT FROM t",
		"SELECT * FROM t TRAIN svm",
		"CREATE TABLE",
		"CREATE TABLE t AS SYNTHETIC workload='x'",
		"CREATE TABLE t AS SYNTHETIC(workload=)",
		"SELECT * FROM t PREDICT BY m LIMIT -3",
		"SHOW EVERYTHING",
		"DROP DATABASE x",
		"SELECT * FROM t TRAIN BY svm WITH lr=0.1 extra",
		"CREATE TABLE t FROM 'unterminated",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestParseErrorMessagesMentionContext(t *testing.T) {
	_, err := Parse("SELECT * FROM t DANCE BY svm")
	if err == nil || !strings.Contains(err.Error(), "TRAIN") {
		t.Fatalf("error %v should mention TRAIN", err)
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"10MB": 10 << 20, "8KB": 8 << 10, "1GB": 1 << 30,
		"2M": 2 << 20, "512": 512, "1.5MB": 3 << 19,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	if _, err := ParseSize("abcMB"); err == nil {
		t.Error("ParseSize should reject garbage")
	}
}

func TestValueBool(t *testing.T) {
	if !(Value{Raw: "true"}).Bool() || (Value{Raw: "false"}).Bool() {
		t.Fatal("string bool")
	}
	if !(Value{Num: 1, IsNum: true}).Bool() || (Value{Num: 0, IsNum: true}).Bool() {
		t.Fatal("numeric bool")
	}
}

func TestParamDefaults(t *testing.T) {
	p := Params{}
	if p.Str("x", "d") != "d" || p.Num("x", 7) != 7 || p.Bool("x", true) != true {
		t.Fatal("defaults broken")
	}
}

func TestParseWherePredicate(t *testing.T) {
	cases := []struct {
		sql string
		col string
		op  string
		val float64
	}{
		{`SELECT * FROM t WHERE label = 1 TRAIN BY svm`, "label", "=", 1},
		{`SELECT * FROM t WHERE label = -1 TRAIN BY svm`, "label", "=", -1},
		{`SELECT * FROM t WHERE id < 100 PREDICT BY m`, "id", "<", 100},
		{`SELECT * FROM t WHERE id >= 50 PREDICT BY m`, "id", ">=", 50},
		{`SELECT * FROM t WHERE label != 0 TRAIN BY lr`, "label", "!=", 0},
		{`SELECT * FROM t WHERE id <= 7 TRAIN BY lr`, "id", "<=", 7},
		{`SELECT * FROM t WHERE id > 7 TRAIN BY lr`, "id", ">", 7},
	}
	for _, c := range cases {
		st, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.sql, err)
		}
		var w *Predicate
		switch st := st.(type) {
		case *Train:
			w = st.Where
		case *Predict:
			w = st.Where
		}
		if w == nil || w.Column != c.col || w.Op != c.op || w.Value != c.val {
			t.Fatalf("%q parsed predicate %+v, want %s %s %v", c.sql, w, c.col, c.op, c.val)
		}
	}
}

func TestParseWhereErrors(t *testing.T) {
	bad := []string{
		`SELECT * FROM t WHERE features = 1 TRAIN BY svm`, // unsupported column
		`SELECT * FROM t WHERE label ~ 1 TRAIN BY svm`,    // bad operator
		`SELECT * FROM t WHERE label = 'x' TRAIN BY svm`,  // non-numeric value
		`SELECT * FROM t WHERE label ! 1 TRAIN BY svm`,    // lone !
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestParseSelectGeneral(t *testing.T) {
	st := parseOne(t, `SELECT * FROM corgi_jobs`).(*Select)
	if st.Table != "corgi_jobs" || st.Columns != nil || st.Where != nil || st.OrderBy != "" || st.Limit != 0 {
		t.Fatalf("bare select parsed %+v", st)
	}

	st = parseOne(t, `SELECT id, State FROM corgi_jobs WHERE state = 'running' AND epoch > 3 ORDER BY Id DESC LIMIT 7;`).(*Select)
	if !reflect.DeepEqual(st.Columns, []string{"id", "state"}) {
		t.Fatalf("columns = %v", st.Columns)
	}
	if len(st.Where) != 2 {
		t.Fatalf("where = %+v", st.Where)
	}
	if c := st.Where[0]; c.Column != "state" || c.Op != "=" || c.Value.Raw != "running" || c.Value.IsNum {
		t.Fatalf("cond 0 = %+v", c)
	}
	if c := st.Where[1]; c.Column != "epoch" || c.Op != ">" || !c.Value.IsNum || c.Value.Num != 3 {
		t.Fatalf("cond 1 = %+v", c)
	}
	if st.OrderBy != "id" || !st.Desc || st.Limit != 7 {
		t.Fatalf("order/limit = %q desc=%v limit=%d", st.OrderBy, st.Desc, st.Limit)
	}

	st = parseOne(t, `SELECT * FROM corgi_metrics ORDER BY name ASC`).(*Select)
	if st.OrderBy != "name" || st.Desc {
		t.Fatalf("asc order parsed %+v", st)
	}
}

func TestParseSelectErrors(t *testing.T) {
	bad := []string{
		`SELECT * FROM corgi_jobs DANCE`,                     // trailing garbage
		`SELECT * FROM corgi_jobs ORDER name`,                // missing BY
		`SELECT * FROM corgi_jobs LIMIT -1`,                  // negative limit
		`SELECT * FROM corgi_jobs WHERE`,                     // empty where
		`SELECT * FROM corgi_jobs WHERE a = 1 AND`,           // dangling AND
		`SELECT a, FROM corgi_jobs`,                          // dangling comma
		`SELECT id FROM t TRAIN BY svm`,                      // projection into TRAIN
		`SELECT * FROM t WHERE a = 1 AND b = 2 TRAIN BY svm`, // multi-cond TRAIN
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}
