package sqlparse

import "testing"

// Every statement's malformed forms, each with its exact error text. A
// lexical error anywhere in the input outranks a grammatical one, even one
// the grammar meets first: the last rows pin that precedence.
func TestParseMustFail(t *testing.T) {
	tests := []struct {
		sql  string
		want string
	}{
		{sql: ``, want: "sqlparse: expected CREATE, SELECT, INSERT, SHOW, DROP, EXPLAIN, ANALYZE, SAVE, LOAD, CHECKPOINT or PROMOTE, got end of input"},
		{sql: `   `, want: "sqlparse: expected CREATE, SELECT, INSERT, SHOW, DROP, EXPLAIN, ANALYZE, SAVE, LOAD, CHECKPOINT or PROMOTE, got end of input"},
		{sql: `-- only a comment`, want: "sqlparse: expected CREATE, SELECT, INSERT, SHOW, DROP, EXPLAIN, ANALYZE, SAVE, LOAD, CHECKPOINT or PROMOTE, got end of input"},
		{sql: `;`, want: "sqlparse: expected CREATE, SELECT, INSERT, SHOW, DROP, EXPLAIN, ANALYZE, SAVE, LOAD, CHECKPOINT or PROMOTE, got \";\""},
		{sql: `FROB t`, want: "sqlparse: expected CREATE, SELECT, INSERT, SHOW, DROP, EXPLAIN, ANALYZE, SAVE, LOAD, CHECKPOINT or PROMOTE, got \"FROB\""},

		{sql: `CREATE`, want: "sqlparse: expected TABLE, got end of input"},
		{sql: `CREATE t`, want: "sqlparse: expected TABLE, got \"t\""},
		{sql: `CREATE TABLE`, want: "sqlparse: expected identifier, got end of input"},
		{sql: `CREATE TABLE 5`, want: "sqlparse: expected identifier, got \"5\""},
		{sql: `CREATE TABLE t`, want: "sqlparse: expected AS SYNTHETIC(...) or FROM 'file', got end of input"},
		{sql: `CREATE TABLE t AS`, want: "sqlparse: expected SYNTHETIC, got end of input"},
		{sql: `CREATE TABLE t AS SYNTHETIC workload='x'`, want: "sqlparse: expected (, got \"workload\""},
		{sql: `CREATE TABLE t AS SYNTHETIC(workload=)`, want: "sqlparse: expected a value, got \")\""},
		{sql: `CREATE TABLE t AS SYNTHETIC(workload='x'`, want: "sqlparse: expected ), got end of input"},
		{sql: `CREATE TABLE t AS SYNTHETIC(='x')`, want: "sqlparse: expected identifier, got \"=\""},
		{sql: `CREATE TABLE t FROM x`, want: "sqlparse: expected string, got \"x\""},
		{sql: `CREATE TABLE t FROM 'unterminated`, want: "sqlparse: unterminated string at offset 20"},
		{sql: `CREATE TABLE t FROM 'f' WITH`, want: "sqlparse: expected identifier, got end of input"},
		{sql: `CREATE TABLE t FROM 'f' WITH block_size=1e5MB`, want: "sqlparse: unit suffix on exponent literal \"1e5MB\" at offset 40"},
		{sql: `CREATE TABLE t FROM 'f' WITH block_size=10QB`, want: "sqlparse: bad size \"10Q\": strconv.ParseFloat: parsing \"10Q\": invalid syntax"},
		{sql: `CREATE TABLE t FROM 'f' extra`, want: "sqlparse: trailing input at \"extra\""},

		{sql: `SELECT`, want: "sqlparse: expected identifier, got end of input"},
		{sql: `SELECT FROM t`, want: "sqlparse: expected FROM, got \"t\""},
		{sql: `SELECT * t`, want: "sqlparse: expected FROM, got \"t\""},
		{sql: `SELECT * FROM`, want: "sqlparse: expected identifier, got end of input"},
		{sql: `SELECT * FROM t TRAIN svm`, want: "sqlparse: expected BY, got \"svm\""},
		{sql: `SELECT * FROM t TRAIN BY`, want: "sqlparse: expected identifier, got end of input"},
		{sql: `SELECT * FROM t TRAIN BY svm MODEL`, want: "sqlparse: expected identifier, got end of input"},
		{sql: `SELECT * FROM t TRAIN BY svm WITH lr=0.1 extra`, want: "sqlparse: trailing input at \"extra\""},
		{sql: `SELECT * FROM t TRAIN BY svm WITH lr`, want: "sqlparse: expected =, got end of input"},
		{sql: `SELECT * FROM t TRAIN BY svm WITH note="unterminated`, want: "sqlparse: unterminated string at offset 39"},
		{sql: `SELECT * FROM t TRAIN BY svm WITH x=1e5e5`, want: "sqlparse: unit suffix on exponent literal \"1e5e\" at offset 36"},
		{sql: `SELECT * FROM t DANCE BY svm`, want: "sqlparse: expected TRAIN BY, PREDICT BY, WHERE, ORDER BY, LIMIT or end of statement, got \"DANCE\""},
		{sql: `SELECT * FROM t PREDICT m`, want: "sqlparse: expected BY, got \"m\""},
		{sql: `SELECT * FROM t PREDICT BY m LIMIT -3`, want: "sqlparse: bad LIMIT \"-3\""},
		{sql: `SELECT * FROM t PREDICT BY m LIMIT 1e2`, want: "sqlparse: bad LIMIT \"1e2\""},
		{sql: `SELECT * FROM t PREDICT BY m LIMIT x`, want: "sqlparse: expected number, got \"x\""},
		{sql: `SELECT * FROM t PREDICT BY m LIMIT 99999999999999999999`, want: "sqlparse: bad LIMIT \"99999999999999999999\""},
		{sql: `SELECT * FROM t WHERE features = 1 TRAIN BY svm`, want: "sqlparse: WHERE supports columns label and id, got \"features\""},
		{sql: `SELECT * FROM t WHERE label ~ 1 TRAIN BY svm`, want: "sqlparse: unexpected character '~' at offset 28"},
		{sql: `SELECT * FROM t WHERE label = 'x' TRAIN BY svm`, want: "sqlparse: WHERE needs a numeric value, got \"x\""},
		{sql: `SELECT * FROM t WHERE label ! 1 TRAIN BY svm`, want: "sqlparse: expected =, got \"1\""},
		{sql: `SELECT * FROM t WHERE label = 1 AND id = 2 TRAIN BY svm`, want: "sqlparse: TRAIN/PREDICT WHERE supports a single condition"},
		{sql: `SELECT * FROM t WHERE id < 'a' PREDICT BY m`, want: "sqlparse: WHERE needs a numeric value, got \"a\""},
		{sql: `SELECT * FROM t WHERE id < PREDICT BY m`, want: "sqlparse: expected TRAIN BY, PREDICT BY, WHERE, ORDER BY, LIMIT or end of statement, got \"BY\""},
		{sql: `SELECT id FROM t TRAIN BY svm`, want: "sqlparse: TRAIN/PREDICT requires SELECT *, got a column list"},
		{sql: `SELECT * FROM corgi_jobs ORDER name`, want: "sqlparse: expected BY, got \"name\""},
		{sql: `SELECT * FROM corgi_jobs ORDER BY`, want: "sqlparse: expected identifier, got end of input"},
		{sql: `SELECT * FROM corgi_jobs WHERE`, want: "sqlparse: expected identifier, got end of input"},
		{sql: `SELECT * FROM corgi_jobs WHERE a =`, want: "sqlparse: expected a value, got end of input"},
		{sql: `SELECT * FROM corgi_jobs WHERE a = 1 AND`, want: "sqlparse: expected identifier, got end of input"},
		{sql: `SELECT a, FROM corgi_jobs`, want: "sqlparse: expected FROM, got \"corgi_jobs\""},
		{sql: `SELECT * FROM corgi_jobs DANCE`, want: "sqlparse: expected TRAIN BY, PREDICT BY, WHERE, ORDER BY, LIMIT or end of statement, got \"DANCE\""},
		{sql: `SELECT * FROM corgi_jobs LIMIT -1`, want: "sqlparse: bad LIMIT \"-1\""},
		{sql: `SELECT * FROM té`, want: "sqlparse: unexpected character '©' at offset 16"},

		{sql: `SHOW`, want: "sqlparse: expected TABLES or MODELS, got end of input"},
		{sql: `SHOW EVERYTHING`, want: "sqlparse: expected TABLES or MODELS, got \"EVERYTHING\""},
		{sql: `SHOW TABLES now`, want: "sqlparse: trailing input at \"now\""},
		{sql: `SHOW TABLES; SHOW MODELS`, want: "sqlparse: trailing input at \"SHOW\""},
		{sql: `DROP`, want: "sqlparse: expected TABLE or MODEL, got end of input"},
		{sql: `DROP DATABASE x`, want: "sqlparse: expected TABLE or MODEL, got \"DATABASE\""},
		{sql: `DROP TABLE`, want: "sqlparse: expected identifier, got end of input"},
		{sql: `DROP MODEL 'm'`, want: "sqlparse: expected identifier, got \"m\""},

		{sql: `EXPLAIN`, want: "sqlparse: expected SELECT, got end of input"},
		{sql: `EXPLAIN FORMAT XML SELECT * FROM t TRAIN BY svm`, want: "sqlparse: EXPLAIN FORMAT wants JSON or TEXT, got \"XML\""},
		{sql: `EXPLAIN FORMAT SELECT * FROM t TRAIN BY svm`, want: "sqlparse: EXPLAIN FORMAT wants JSON or TEXT, got \"SELECT\""},
		{sql: `EXPLAIN SELECT * FROM t PREDICT BY m`, want: "sqlparse: EXPLAIN supports only TRAIN BY queries"},
		{sql: `EXPLAIN SHOW TABLES`, want: "sqlparse: expected SELECT, got \"SHOW\""},
		{sql: `ANALYZE t`, want: "sqlparse: expected TABLE, got \"t\""},
		{sql: `ANALYZE TABLE`, want: "sqlparse: expected identifier, got end of input"},
		{sql: `ANALYZE TABLE t WITH`, want: "sqlparse: expected identifier, got end of input"},

		{sql: `SAVE m TO 'x'`, want: "sqlparse: expected MODEL, got \"m\""},
		{sql: `SAVE MODEL m 'x'`, want: "sqlparse: expected TO, got \"x\""},
		{sql: `SAVE MODEL m TO x`, want: "sqlparse: expected string, got \"x\""},
		{sql: `LOAD t FROM 'x'`, want: "sqlparse: expected MODEL or INTO after LOAD, got \"t\""},
		{sql: `LOAD MODEL m FROM x`, want: "sqlparse: expected string, got \"x\""},
		{sql: `LOAD INTO t 'x'`, want: "sqlparse: expected FROM, got \"x\""},

		{sql: `INSERT t VALUES (1, 2)`, want: "sqlparse: expected INTO, got \"t\""},
		{sql: `INSERT INTO t (1, 2)`, want: "sqlparse: expected VALUES, got \"(\""},
		{sql: `INSERT INTO t VALUES`, want: "sqlparse: expected (, got end of input"},
		{sql: `INSERT INTO t VALUES (1)`, want: "sqlparse: INSERT row needs a label and at least one feature"},
		{sql: `INSERT INTO t VALUES (1, 'x')`, want: "sqlparse: INSERT values must be numeric, got \"x\""},
		{sql: `INSERT INTO t VALUES ()`, want: "sqlparse: expected a value, got \")\""},
		{sql: `INSERT INTO t VALUES (1, 2`, want: "sqlparse: expected ), got end of input"},
		{sql: `INSERT INTO t VALUES (1, 2), (3,)`, want: "sqlparse: expected a value, got \")\""},
		{sql: `INSERT INTO t VALUES (1, 2) (3, 4)`, want: "sqlparse: trailing input at \"(\""},
		{sql: `INSERT INTO t VALUES (1, 1e)`, want: "sqlparse: bad size \"1E\": strconv.ParseFloat: parsing \"1E\": invalid syntax"},
		{sql: `INSERT INTO t VALUES (1, 1.2.3e4)`, want: "sqlparse: bad number \"1.2.3e4\""},
		{sql: `INSERT INTO t VALUES (1, 1e999)`, want: "sqlparse: bad number \"1e999\""},
		{sql: `INSERT INTO t VALUES (1, -1e999)`, want: "sqlparse: bad number \"-1e999\""},
		{sql: `INSERT INTO t VALUES (1, 1e5MB)`, want: "sqlparse: unit suffix on exponent literal \"1e5MB\" at offset 25"},
		{sql: `INSERT INTO t VALUES (1, e5)`, want: "sqlparse: INSERT values must be numeric, got \"e5\""},
		{sql: `INSERT INTO t VALUES (1, 2) @`, want: "sqlparse: unexpected character '@' at offset 28"},
		{sql: `CHECKPOINT now`, want: "sqlparse: trailing input at \"now\""},
		{sql: `PROMOTE now`, want: "sqlparse: trailing input at \"now\""},

		{sql: `SELECT * FRM t WHERE x = 'open`, want: "sqlparse: unterminated string at offset 25"},
		{sql: `INSERT INTO t VALUE (1, 2) @`, want: "sqlparse: unexpected character '@' at offset 27"},
		{sql: `DROP DATABASE t # comment`, want: "sqlparse: unexpected character '#' at offset 16"},
		{sql: `SHOW TABLES @`, want: "sqlparse: unexpected character '@' at offset 12"},
		{sql: `SHOW ~ TABLES`, want: "sqlparse: unexpected character '~' at offset 5"},
		{sql: `INSERT INTO t VALUES (1, 'x') $`, want: "sqlparse: unexpected character '$' at offset 30"},
		{sql: `CREATE TABLE t FROM 'f' WITH block_size=10QB, x="open`, want: "sqlparse: unterminated string at offset 48"},
	}
	for _, tc := range tests {
		st, err := Parse(tc.sql)
		if err == nil {
			t.Errorf("Parse(%q) = %#v, want error %q", tc.sql, st, tc.want)
		} else if err.Error() != tc.want {
			t.Errorf("Parse(%q) error:\n  got  %q\n  want %q", tc.sql, err, tc.want)
		}
	}
}
