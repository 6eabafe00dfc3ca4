package db

import "testing"

// A no-WAL INSERT hands each parsed row's features to the table as they
// are. The same 20-row statement allocated 596 times when execInsert copied
// every row and the parser built a token slice; it now allocates 35 times,
// and the gate sits just above that so a regression of a handful of
// allocations per statement fails it.
func TestInsertAllocsPerRow(t *testing.T) {
	const rows, bound = 20, 40
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.02, order='clustered') WITH device='ram', block_size=16KB`)
	sql := insertSQL(t, s, "t", rows)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a %d-row INSERT allocates %v times", rows, allocs)
	if allocs > bound {
		t.Fatalf("a %d-row INSERT allocates %v times, want at most %d", rows, allocs, bound)
	}
}
