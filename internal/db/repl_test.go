package db

import (
	"errors"
	"testing"

	"corgipile/internal/storage"
)

// collectRecords drains a session's WAL notify hook into a slice — the
// record stream a replication primary would publish.
func collectRecords(s *Session) *[]storage.WALRecord {
	recs := &[]storage.WALRecord{}
	s.WAL().WithNotify(func(rec storage.WALRecord) {
		cp := rec
		cp.Payload = append([]byte(nil), rec.Payload...)
		*recs = append(*recs, cp)
	})
	return recs
}

// catalogFingerprint summarizes a session's catalog for equality checks.
func catalogFingerprint(t *testing.T, s *Session) map[string]int {
	t.Helper()
	fp := map[string]int{}
	for _, name := range sortedKeys(s.tables) {
		fp["table:"+name] = s.tables[name].Table.NumTuples()
	}
	for _, name := range sortedKeys(s.models) {
		fp["model:"+name] = len(s.models[name].W)
	}
	return fp
}

func sameFingerprint(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestApplyReplicatedStream: shipping every primary record through
// ApplyReplicated reproduces the catalog, preserves LSNs, skips resends
// (ErrStaleLSN), and the replica's directory recovers like a primary's.
func TestApplyReplicatedStream(t *testing.T) {
	prim, _ := newDurableSession(t, t.TempDir())
	recs := collectRecords(prim)
	mustExec(t, prim, walTestCreate)
	mustExec(t, prim, insertSQL(t, prim, "t", 40))
	lossTrace(t, prim, "base")

	replDir := t.TempDir()
	repl, _ := newDurableSession(t, replDir)
	for _, rec := range *recs {
		if err := repl.ApplyReplicated(rec); err != nil {
			t.Fatalf("apply lsn %d: %v", rec.LSN, err)
		}
	}
	if repl.LastLSN() != prim.LastLSN() {
		t.Fatalf("replica lsn %d, primary %d", repl.LastLSN(), prim.LastLSN())
	}
	if !sameFingerprint(catalogFingerprint(t, prim), catalogFingerprint(t, repl)) {
		t.Fatalf("catalogs differ:\nprimary %v\nreplica %v",
			catalogFingerprint(t, prim), catalogFingerprint(t, repl))
	}

	// A resend after reconnect must be skipped, not double-applied.
	last := (*recs)[len(*recs)-1]
	if err := repl.ApplyReplicated(last); !errors.Is(err, storage.ErrStaleLSN) {
		t.Fatalf("resend: got %v, want ErrStaleLSN", err)
	}
	if !sameFingerprint(catalogFingerprint(t, prim), catalogFingerprint(t, repl)) {
		t.Fatal("resend mutated the replica catalog")
	}

	// The replica dir must recover standalone — the PROMOTE guarantee.
	if err := repl.Close(); err != nil {
		t.Fatal(err)
	}
	re, stats := newDurableSession(t, replDir)
	if stats.Tables != 1 || stats.Models != 1 {
		t.Fatalf("replica dir recovery: %v", stats)
	}
	if !sameFingerprint(catalogFingerprint(t, prim), catalogFingerprint(t, re)) {
		t.Fatal("recovered replica catalog differs from primary")
	}
}

// TestInstallReplicaSnapshot: a catching-up replica installs the primary's
// snapshot wholesale and can then apply the live tail on top.
func TestInstallReplicaSnapshot(t *testing.T) {
	prim, _ := newDurableSession(t, t.TempDir())
	mustExec(t, prim, walTestCreate)
	mustExec(t, prim, insertSQL(t, prim, "t", 30))
	snap, frontier, err := prim.ReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if frontier != prim.LastLSN() {
		t.Fatalf("snapshot frontier %d, primary at %d", frontier, prim.LastLSN())
	}

	// Tail records appended after the snapshot was cut.
	recs := collectRecords(prim)
	mustExec(t, prim, insertSQL(t, prim, "t", 10))

	replDir := t.TempDir()
	repl, _ := newDurableSession(t, replDir)
	if err := repl.InstallReplicaSnapshot(snap, frontier); err != nil {
		t.Fatal(err)
	}
	if repl.LastLSN() != frontier {
		t.Fatalf("after snapshot: lsn %d, want frontier %d", repl.LastLSN(), frontier)
	}
	for _, rec := range *recs {
		if err := repl.ApplyReplicated(rec); err != nil {
			t.Fatalf("tail apply lsn %d: %v", rec.LSN, err)
		}
	}
	if !sameFingerprint(catalogFingerprint(t, prim), catalogFingerprint(t, repl)) {
		t.Fatal("catalog mismatch after snapshot + tail")
	}

	// Corrupt snapshots must be rejected with the catalog untouched.
	before := catalogFingerprint(t, repl)
	bad := append([]byte(nil), snap...)
	bad[len(bad)/2] ^= 0xFF
	if err := repl.InstallReplicaSnapshot(bad, frontier); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if !sameFingerprint(before, catalogFingerprint(t, repl)) {
		t.Fatal("failed snapshot install mutated the catalog")
	}

	// The replica dir recovers standalone after a snapshot install too.
	if err := repl.Close(); err != nil {
		t.Fatal(err)
	}
	re, stats := newDurableSession(t, replDir)
	if stats.Tables != 1 {
		t.Fatalf("recovery after snapshot install: %v", stats)
	}
	if !sameFingerprint(catalogFingerprint(t, prim), catalogFingerprint(t, re)) {
		t.Fatal("recovered catalog differs")
	}
}

// TestReadOnlySession: replica mode rejects every mutating statement with
// ErrReadOnly, allows reads, and PROMOTE-style SetReadOnly(false) restores
// writes.
func TestReadOnlySession(t *testing.T) {
	s, _ := newDurableSession(t, t.TempDir())
	mustExec(t, s, walTestCreate)
	mustExec(t, s, insertSQL(t, s, "t", 20))
	lossTrace(t, s, "base")
	s.SetReadOnly(true)

	blocked := []string{
		walTestCreate,
		insertSQL(t, s, "t", 2),
		"LOAD INTO t FROM 'nope.libsvm'",
		"DROP TABLE t",
		"DROP MODEL base",
		"SELECT * FROM t TRAIN BY svm MODEL m2 WITH max_epoch_num=1",
		"EXPLAIN ANALYZE SELECT * FROM t TRAIN BY svm MODEL m3 WITH max_epoch_num=1",
		"CHECKPOINT",
		"LOAD MODEL m4 FROM 'nope.json'",
	}
	for _, sql := range blocked {
		if _, err := s.Exec(sql); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("%s: got %v, want ErrReadOnly", sql, err)
		}
	}

	allowed := []string{
		"SHOW TABLES",
		"SHOW MODELS",
		"SELECT * FROM t PREDICT BY base LIMIT 1",
		"EXPLAIN SELECT * FROM t TRAIN BY svm MODEL m5 WITH max_epoch_num=1",
	}
	for _, sql := range allowed {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("read-only should allow %s: %v", sql, err)
		}
	}
	if _, ok := s.Model("m3"); ok {
		t.Fatal("blocked EXPLAIN ANALYZE installed a model")
	}

	s.SetReadOnly(false)
	mustExec(t, s, insertSQL(t, s, "t", 2))
}
