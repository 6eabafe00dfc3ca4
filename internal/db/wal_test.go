package db

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"corgipile/internal/storage"
)

// newDurableSession opens a WAL-backed session over dir.
func newDurableSession(t *testing.T, dir string) (*Session, RecoveryStats) {
	t.Helper()
	s := NewSession()
	stats, err := s.OpenWAL(dir)
	if err != nil {
		t.Fatalf("OpenWAL(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s, stats
}

const walTestCreate = `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.02, order='clustered') WITH device='ram', block_size=16KB`

// insertSQL builds an INSERT of n rows matching the table's feature count.
func insertSQL(t testing.TB, s *Session, table string, n int) string {
	t.Helper()
	e, ok := s.Table(table)
	if !ok {
		t.Fatalf("unknown table %q", table)
	}
	rows := make([]string, n)
	for i := 0; i < n; i++ {
		vals := make([]string, e.Table.Features()+1)
		vals[0] = fmt.Sprintf("%d", 1-2*(i%2))
		for f := 1; f < len(vals); f++ {
			vals[f] = fmt.Sprintf("%d", (i+f)%11)
		}
		rows[i] = "(" + strings.Join(vals, ", ") + ")"
	}
	return fmt.Sprintf("INSERT INTO %s VALUES %s", table, strings.Join(rows, ", "))
}

// lossTrace trains a throwaway model and returns the per-epoch loss column.
func lossTrace(t *testing.T, s *Session, model string) []string {
	t.Helper()
	res, err := s.Exec(fmt.Sprintf(
		`SELECT * FROM t TRAIN BY svm MODEL %s WITH max_epoch_num=3, seed=7, shuffle='corgipile'`, model))
	if err != nil {
		t.Fatal(err)
	}
	var losses []string
	for _, row := range res.Rows {
		losses = append(losses, row[1])
	}
	return losses
}

// A WAL-backed session's catalog must survive close + reopen bit-for-bit:
// same tables, same blocks, same model weights, and a subsequent same-seed
// TRAIN must produce the identical loss trace.
func TestWALRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, stats := newDurableSession(t, dir)
	if stats.Tables != 0 || stats.Models != 0 {
		t.Fatalf("fresh dir recovered %v", stats)
	}
	mustExec(t, a, walTestCreate)
	mustExec(t, a, insertSQL(t, a, "t", 3))
	mustExec(t, a, `SELECT * FROM t TRAIN BY svm MODEL m1 WITH max_epoch_num=2, seed=7`)
	wantLoss := lossTrace(t, a, "probe_a")
	at, _ := a.Table("t")
	wantTuples, wantBlocks := at.Table.NumTuples(), at.Table.NumBlocks()
	am, _ := a.Model("m1")
	a.Close()

	b, stats := newDurableSession(t, dir)
	if stats.Tables != 1 || stats.Models != 2 {
		t.Fatalf("recovered %v, want 1 table + 2 models", stats)
	}
	bt, ok := b.Table("t")
	if !ok {
		t.Fatal("table t lost")
	}
	if bt.Table.NumTuples() != wantTuples || bt.Table.NumBlocks() != wantBlocks {
		t.Fatalf("recovered %d tuples / %d blocks, want %d / %d",
			bt.Table.NumTuples(), bt.Table.NumBlocks(), wantTuples, wantBlocks)
	}
	// The recovered heap must decode to the same tuples, including the
	// inserted row.
	got, err := bt.Table.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	want, err := at.Table.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Label != want[i].Label {
			t.Fatalf("tuple %d diverged: %+v vs %+v", i, got[i], want[i])
		}
	}
	bm, ok := b.Model("m1")
	if !ok {
		t.Fatal("model m1 lost")
	}
	if bm.Kind != am.Kind || bm.Table != "t" || bm.TrainedBlocks != am.TrainedBlocks {
		t.Fatalf("model metadata diverged: %+v vs %+v", bm, am)
	}
	if len(bm.W) != len(am.W) {
		t.Fatalf("weights length %d, want %d", len(bm.W), len(am.W))
	}
	for i := range bm.W {
		if bm.W[i] != am.W[i] {
			t.Fatalf("weight %d diverged: %v vs %v", i, bm.W[i], am.W[i])
		}
	}
	if got := lossTrace(t, b, "probe_b"); !equalStrings(got, wantLoss) {
		t.Fatalf("post-recovery loss trace %v, want %v", got, wantLoss)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CHECKPOINT must compact the catalog, truncate the live log, and leave
// recovery indistinguishable — including mutations appended after it.
func TestCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	a, _ := newDurableSession(t, dir)
	mustExec(t, a, walTestCreate)
	mustExec(t, a, `SELECT * FROM t TRAIN BY lr MODEL m1 WITH max_epoch_num=2`)
	before, err := os.Stat(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, a, `CHECKPOINT`)
	if !strings.Contains(res.Message, "CHECKPOINT") {
		t.Fatalf("message = %q", res.Message)
	}
	after, err := os.Stat(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() || after.Size() != 0 {
		t.Fatalf("wal.log %d bytes after checkpoint (was %d), want 0", after.Size(), before.Size())
	}
	if _, err := os.Stat(CheckpointPath(dir)); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations land in the fresh log and must replay on
	// top of the checkpoint image.
	mustExec(t, a, insertSQL(t, a, "t", 5))
	mustExec(t, a, `DROP MODEL m1`)
	tuples := func(s *Session) int {
		e, ok := s.Table("t")
		if !ok {
			t.Fatal("table t missing")
		}
		return e.Table.NumTuples()
	}
	want := tuples(a)
	a.Close()

	b, stats := newDurableSession(t, dir)
	if stats.CheckpointRecords == 0 || stats.LogRecords == 0 {
		t.Fatalf("expected both checkpoint and log records, got %v", stats)
	}
	if got := tuples(b); got != want {
		t.Fatalf("recovered %d tuples, want %d", got, want)
	}
	if _, ok := b.Model("m1"); ok {
		t.Fatal("dropped model m1 resurrected by recovery")
	}
}

func TestCheckpointRequiresWAL(t *testing.T) {
	s := NewSession()
	if _, err := s.Exec(`CHECKPOINT`); err == nil {
		t.Fatal("CHECKPOINT without WAL should fail")
	}
}

// A torn checkpoint.tmp (crash mid-checkpoint, before the atomic rename)
// must be discarded; recovery uses the old checkpoint + full log.
func TestRecoveryDiscardsTornCheckpointTmp(t *testing.T) {
	dir := t.TempDir()
	a, _ := newDurableSession(t, dir)
	mustExec(t, a, walTestCreate)
	a.Close()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.tmp"), []byte("torn garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, stats := newDurableSession(t, dir)
	if stats.Tables != 1 {
		t.Fatalf("recovered %v, want 1 table", stats)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.tmp")); !os.IsNotExist(err) {
		t.Fatal("checkpoint.tmp not removed")
	}
	_ = b
}

// A corrupt committed checkpoint is a hard error — recovery must refuse to
// serve a catalog it cannot trust, not silently skip it.
func TestRecoveryRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	a, _ := newDurableSession(t, dir)
	mustExec(t, a, walTestCreate)
	mustExec(t, a, `CHECKPOINT`)
	a.Close()
	buf, err := os.ReadFile(CheckpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF
	if err := os.WriteFile(CheckpointPath(dir), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewSession()
	if _, err := s.OpenWAL(dir); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// A torn live-log tail (crash mid-append) must be truncated, keeping the
// valid prefix.
func TestRecoveryTruncatesTornLogTail(t *testing.T) {
	dir := t.TempDir()
	a, _ := newDurableSession(t, dir)
	mustExec(t, a, walTestCreate)
	a.Close()
	f, err := os.OpenFile(WALPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	b, stats := newDurableSession(t, dir)
	if stats.Tables != 1 {
		t.Fatalf("recovered %v, want 1 table", stats)
	}
	// The truncated log must accept further mutations and replay cleanly.
	mustExec(t, b, insertSQL(t, b, "t", 1))
	b.Close()
	if _, stats := newDurableSession(t, dir); stats.Tables != 1 {
		t.Fatalf("second recovery %v", stats)
	}
}

// INSERT and LOAD INTO validate their input against the table schema.
func TestInsertValidation(t *testing.T) {
	s := NewSession()
	mustExec(t, s, walTestCreate)
	if _, err := s.Exec(`INSERT INTO nope VALUES (1, 2)`); err == nil {
		t.Fatal("INSERT into unknown table accepted")
	}
	if _, err := s.Exec(`INSERT INTO t VALUES (1, 2)`); err == nil {
		t.Fatal("INSERT with wrong feature count accepted")
	}
	e, _ := s.Table("t")
	base := e.Table.NumTuples()
	res := mustExec(t, s, insertSQL(t, s, "t", 2))
	if !strings.Contains(res.Message, "2 tuples") {
		t.Fatalf("message = %q", res.Message)
	}
	if e.Table.NumTuples() != base+2 {
		t.Fatalf("tuples = %d, want %d", e.Table.NumTuples(), base+2)
	}
	all, err := e.Table.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	last := all[len(all)-1]
	if last.ID != int64(base+1) || last.Label != -1 { // rows alternate +1/-1; row 2 is -1
		t.Fatalf("appended tuple = %+v", last)
	}
}

func TestLoadIntoTable(t *testing.T) {
	s := NewSession()
	mustExec(t, s, walTestCreate)
	e, _ := s.Table("t")
	base := e.Table.NumTuples()
	path := filepath.Join(t.TempDir(), "extra.libsvm")
	if err := os.WriteFile(path, []byte("1 1:0.5 3:1.5\n-1 2:2.5 8:0.25\n1 1:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, fmt.Sprintf(`LOAD INTO t FROM '%s'`, path))
	if !strings.Contains(res.Message, "3 tuples") {
		t.Fatalf("message = %q", res.Message)
	}
	if e.Table.NumTuples() != base+3 {
		t.Fatalf("tuples = %d, want %d", e.Table.NumTuples(), base+3)
	}
	if _, err := s.Exec(`LOAD INTO nope FROM '` + path + `'`); err == nil {
		t.Fatal("LOAD INTO unknown table accepted")
	}
	bad := filepath.Join(t.TempDir(), "wide.libsvm")
	if err := os.WriteFile(bad, []byte("1 99:0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(fmt.Sprintf(`LOAD INTO t FROM '%s'`, bad)); err == nil {
		t.Fatal("LOAD with out-of-range feature index accepted")
	}
}

// Incremental training: resume folds only the newly appended blocks into
// the run, starts from the stored weights, and advances the frontier.
func TestTrainResume(t *testing.T) {
	s := NewSession()
	mustExec(t, s, walTestCreate)
	mustExec(t, s, `SELECT * FROM t TRAIN BY svm MODEL m1 WITH max_epoch_num=2, seed=3`)
	m1, _ := s.Model("m1")
	e, _ := s.Table("t")
	if m1.Table != "t" || m1.TrainedBlocks != e.Table.NumBlocks() {
		t.Fatalf("m1 frontier = %q/%d, want t/%d", m1.Table, m1.TrainedBlocks, e.Table.NumBlocks())
	}

	// No new blocks yet: resume must refuse.
	if _, err := s.Exec(`SELECT * FROM t TRAIN BY svm MODEL m2 WITH resume='m1', max_epoch_num=1`); err == nil {
		t.Fatal("resume with no new blocks accepted")
	}

	// Append enough tuples to create new blocks.
	before := e.Table.NumBlocks()
	mustExec(t, s, insertSQL(t, s, "t", 400))
	after := e.Table.NumBlocks()
	if after <= before {
		t.Fatalf("insert added no blocks (%d → %d); grow the batch", before, after)
	}

	res := mustExec(t, s, `SELECT * FROM t TRAIN BY svm MODEL m2 WITH resume='m1', max_epoch_num=2, seed=3`)
	if !strings.Contains(res.Message, fmt.Sprintf("resumed from \"m1\" (+%d blocks)", after-before)) {
		t.Fatalf("message = %q", res.Message)
	}
	m2, _ := s.Model("m2")
	if m2.TrainedBlocks != after {
		t.Fatalf("m2 frontier = %d, want %d", m2.TrainedBlocks, after)
	}
	// The resumed run scanned only the appended blocks.
	newTuples := 0
	for i := before; i < after; i++ {
		newTuples += e.Table.BlockTuples(i)
	}
	if got := m2.Epochs[0].Tuples; got != newTuples {
		t.Fatalf("resumed epoch saw %d tuples, want %d (new blocks only)", got, newTuples)
	}

	// Validation: wrong kind, wrong table, unknown model, full-shuffle kind.
	for _, bad := range []string{
		`SELECT * FROM t TRAIN BY lr MODEL x WITH resume='m1'`,
		`SELECT * FROM t TRAIN BY svm MODEL x WITH resume='nope'`,
		`SELECT * FROM t TRAIN BY svm MODEL x WITH resume='m1', shuffle='shuffle_once'`,
	} {
		if _, err := s.Exec(bad); err == nil {
			t.Fatalf("accepted: %s", bad)
		}
	}
	mustExec(t, s, `CREATE TABLE u AS SYNTHETIC(workload='susy', scale=0.02) WITH device='ram', block_size=16KB`)
	if _, err := s.Exec(`SELECT * FROM u TRAIN BY svm MODEL x WITH resume='m1'`); err == nil {
		t.Fatal("resume against the wrong table accepted")
	}
}

// Two identical resumed runs — same catalog, same seed, same frozen block
// range — must produce bit-identical weights.
func TestTrainResumeDeterministic(t *testing.T) {
	dir := t.TempDir()
	a, _ := newDurableSession(t, dir)
	mustExec(t, a, walTestCreate)
	mustExec(t, a, `SELECT * FROM t TRAIN BY svm MODEL m1 WITH max_epoch_num=2, seed=3`)
	mustExec(t, a, insertSQL(t, a, "t", 400))
	a.Close()

	weights := func() []float64 {
		s := NewSession()
		if _, err := s.OpenWAL(dir); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// Recovery replays the log in place; resume from the recovered
		// catalog. The WAL grows a record for m2 but the block range and
		// weights derive only from recovered state, so runs are identical.
		mustExec(t, s, `SELECT * FROM t TRAIN BY svm MODEL m2 WITH resume='m1', max_epoch_num=2, seed=9, shuffle='corgipile'`)
		m, _ := s.Model("m2")
		return m.W
	}
	w1 := weights()
	// Drop the m2 the first run logged so the second recovery starts from
	// the same catalog.
	{
		s := NewSession()
		if _, err := s.OpenWAL(dir); err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, `DROP MODEL m2`)
		s.Close()
	}
	w2 := weights()
	if len(w1) != len(w2) {
		t.Fatalf("weight lengths diverged: %d vs %d", len(w1), len(w2))
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("resumed runs diverged at weight %d: %v vs %v", i, w1[i], w2[i])
		}
	}
}

// Double-attach and replay of unknown record types must fail loudly.
func TestOpenWALErrors(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableSession(t, dir)
	if _, err := s.OpenWAL(dir); err == nil {
		t.Fatal("second OpenWAL accepted")
	}
	s.Close()

	// An unknown record type in the log is a replay error.
	dir2 := t.TempDir()
	w, _, err := storage.OpenWAL(WALPath(dir2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(storage.WALRecordType(99), []byte("???")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	fresh := NewSession()
	if _, err := fresh.OpenWAL(dir2); err == nil {
		t.Fatal("unknown record type accepted")
	}
}
