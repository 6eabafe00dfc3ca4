package serve

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"corgipile/internal/db"
	"corgipile/internal/sqlparse"
	"corgipile/internal/storage"
)

// TestMain doubles as the crash-test child: when CORGI_SERVE_HELPER is
// set, the test binary boots a durable server from the environment and
// blocks until SIGKILLed. Everything it does goes through the public
// serve path, so killing it mid-request is a faithful primary crash.
func TestMain(m *testing.M) {
	if os.Getenv("CORGI_SERVE_HELPER") == "1" {
		runServeHelper()
		return
	}
	os.Exit(m.Run())
}

func runServeHelper() {
	dir := os.Getenv("CORGI_HELPER_DIR")
	session := db.NewSession()
	if _, err := session.OpenWAL(dir); err != nil {
		fmt.Fprintln(os.Stderr, "helper: wal:", err)
		os.Exit(1)
	}
	cfg := Config{Addr: "127.0.0.1:0", Session: session}
	if os.Getenv("CORGI_HELPER_REPL") == "1" {
		cfg.ReplicaListen = "127.0.0.1:0"
	}
	if v := os.Getenv("CORGI_HELPER_CKPT_BYTES"); v != "" {
		n, err := sqlparse.ParseSize(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "helper: ckpt bytes:", err)
			os.Exit(1)
		}
		cfg.CheckpointBytes = n
	}
	srv, err := New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR %s\n", srv.Addr())
	fmt.Printf("REPL %s\n", srv.ReplicaAddr())
	select {} // run until killed — the only exit is SIGKILL
}

// spawnHelper re-executes the test binary as a durable server child and
// returns its client address, its replication address, and the process
// for the test to kill.
func spawnHelper(t *testing.T, dir string, repl bool, ckptBytes string) (addr, replAddr string, proc *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"CORGI_SERVE_HELPER=1",
		"CORGI_HELPER_DIR="+dir,
	)
	if repl {
		cmd.Env = append(cmd.Env, "CORGI_HELPER_REPL=1")
	}
	if ckptBytes != "" {
		cmd.Env = append(cmd.Env, "CORGI_HELPER_CKPT_BYTES="+ckptBytes)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("helper stdout: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("helper start: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(out)
	for lines := 0; lines < 2 && sc.Scan(); lines++ {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "ADDR "); ok {
			addr = rest
		}
		if rest, ok := strings.CutPrefix(line, "REPL "); ok {
			replAddr = rest
		}
	}
	if addr == "" {
		t.Fatal("helper never reported its address")
	}
	return addr, replAddr, cmd
}

// insertRows builds a deterministic INSERT of n rows for table t (susy
// schema: 18 features + label).
func insertRows(n, salt int) string {
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for f := 0; f < 18; f++ {
			fmt.Fprintf(&b, "%.4f, ", float64((salt*31+i)*7+f)/113.0)
		}
		if i%2 == 0 {
			b.WriteString("1)")
		} else {
			b.WriteString("-1)")
		}
	}
	return b.String()
}

const replCreate = `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.02, order='clustered') WITH device='ram', block_size=16KB`
const replBaseTrain = `SELECT * FROM t TRAIN BY svm MODEL base WITH max_epoch_num=2, seed=7, shuffle='corgipile'`
const replResumeTrain = `SELECT * FROM t TRAIN BY svm MODEL base2 WITH resume='base', max_epoch_num=2, seed=7, shuffle='corgipile'`

// waitApplied polls a replica server until its durable LSN reaches want.
func waitApplied(t *testing.T, srv *Server, want uint64) {
	t.Helper()
	waitCondition(t, fmt.Sprintf("replica at lsn %d", want), func() bool { return srv.dbs.LastLSN() >= want })
}

func wireErrCode(err error) string {
	var we *WireError
	if errors.As(err, &we) {
		return we.Code
	}
	return ""
}

// TestReplicaReadOnlyAndPromote runs primary and replica in-process: the
// replica serves reads and PREDICT, rejects mutations with ERR_READ_ONLY,
// refuses PROMOTE on the primary with ERR_NOT_REPLICA, and after PROMOTE
// accepts writes (idempotently).
func TestReplicaReadOnlyAndPromote(t *testing.T) {
	primSess := db.NewSession()
	if _, err := primSess.OpenWAL(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{replCreate, replBaseTrain} {
		if _, err := primSess.Exec(sql); err != nil {
			t.Fatalf("boot: %v", err)
		}
	}
	prim, err := New(Config{Addr: "127.0.0.1:0", Session: primSess, ReplicaListen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("primary New: %v", err)
	}
	defer prim.Close()
	if prim.ReplicaAddr() == "" {
		t.Fatal("primary has no replication address")
	}

	repSess := db.NewSession()
	if _, err := repSess.OpenWAL(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	rep, err := New(Config{Addr: "127.0.0.1:0", Session: repSess, ReplicateFrom: prim.ReplicaAddr()})
	if err != nil {
		t.Fatalf("replica New: %v", err)
	}
	defer rep.Close()
	waitApplied(t, rep, primSess.LastLSN())

	rc, err := Dial(rep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Mutations are rejected with the dedicated code.
	if _, err := rc.Exec(insertRows(3, 0)); wireErrCode(err) != ErrReadOnly {
		t.Fatalf("INSERT on replica: err %v, want %s", err, ErrReadOnly)
	}
	if _, err := rc.Train(replBaseTrain, true, false); wireErrCode(err) != ErrReadOnly {
		t.Fatalf("TRAIN on replica: err %v, want %s", err, ErrReadOnly)
	}
	// Reads and PREDICT still work.
	if _, err := rc.Exec("SHOW MODELS"); err != nil {
		t.Fatalf("SHOW MODELS on replica: %v", err)
	}
	if resp, err := rc.Predict("SELECT * FROM t PREDICT BY base LIMIT 2"); err != nil || len(resp.Rows) != 2 {
		t.Fatalf("PREDICT on replica: %v (%d rows)", err, len(resp.Rows))
	}

	// PROMOTE on the primary is refused.
	pc, err := Dial(prim.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := pc.Promote(); wireErrCode(err) != ErrNotReplica {
		t.Fatalf("PROMOTE on primary: err %v, want %s", err, ErrNotReplica)
	}

	// PROMOTE the replica — via the SQL spelling, to cover that route.
	resp, err := rc.Exec("PROMOTE")
	if err != nil {
		t.Fatalf("PROMOTE: %v", err)
	}
	if !strings.Contains(resp.Message, "promoted") {
		t.Fatalf("PROMOTE message = %q", resp.Message)
	}
	if _, err := rc.Promote(); err != nil {
		t.Fatalf("second PROMOTE not idempotent: %v", err)
	}
	if _, err := rc.Exec(insertRows(3, 1)); err != nil {
		t.Fatalf("INSERT after promote: %v", err)
	}
	if _, err := rc.Train(`SELECT * FROM t TRAIN BY svm MODEL after WITH max_epoch_num=1, seed=3`, true, false); err != nil {
		t.Fatalf("TRAIN after promote: %v", err)
	}
}

// TestFailoverPromoteDeterministic is the end-to-end failover guarantee:
// the primary (a separate process) is SIGKILLed mid-ingest, the replica is
// promoted, and TRAIN ... resume on the promoted replica produces weights
// bit-identical to single-node crash recovery of the primary's directory
// truncated at the replica's applied LSN — promotion IS crash recovery.
func TestFailoverPromoteDeterministic(t *testing.T) {
	primDir := t.TempDir()
	addr, replAddr, child := spawnHelper(t, primDir, true, "")

	repSess := db.NewSession()
	if _, err := repSess.OpenWAL(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	rep, err := New(Config{Addr: "127.0.0.1:0", Session: repSess, ReplicateFrom: replAddr})
	if err != nil {
		t.Fatalf("replica New: %v", err)
	}
	defer rep.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(replCreate); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Train(replBaseTrain, true, false); err != nil {
		t.Fatalf("base train: %v", err)
	}
	// One verified pre-storm INSERT: the resumed train needs at least one
	// replicated block beyond the base model's frontier.
	if _, err := c.Exec(insertRows(10, 99)); err != nil {
		t.Fatalf("pre-storm insert: %v", err)
	}

	// The storm: serial acked INSERTs until the primary dies under us.
	var acked atomic.Int64
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		sc, err := Dial(addr)
		if err != nil {
			return
		}
		defer sc.Close()
		for i := 0; i < 10000; i++ {
			if _, err := sc.Exec(insertRows(10, i)); err != nil {
				return
			}
			acked.Add(1)
		}
	}()
	waitCondition(t, "20 acknowledged INSERTs", func() bool { return acked.Load() >= 20 })
	child.Process.Kill() // SIGKILL mid-INSERT: no flush, no goodbye
	<-stormDone

	// Let the replica notice the dead primary and settle, then promote.
	var settled uint64
	for i := 0; i < 50; i++ {
		now := rep.dbs.LastLSN()
		if now == settled && now > 0 {
			break
		}
		settled = now
		time.Sleep(50 * time.Millisecond) // a quiet window: nothing signals that a dead primary's stream is drained
	}
	rc, err := Dial(rep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	resp, err := rc.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	applied := repSess.LastLSN()
	if !strings.Contains(resp.Message, fmt.Sprintf("lsn %d", applied)) {
		t.Fatalf("promote message %q does not report lsn %d", resp.Message, applied)
	}

	// Single-node crash recovery of the same history: copy the primary's
	// log truncated at the replica's applied LSN. Any boundary cut of the
	// unacknowledged tail is a legitimate crash outcome, so this directory
	// is exactly "the primary, had it crashed at what the replica saw".
	child.Wait()
	soloDir := t.TempDir()
	buf, err := os.ReadFile(db.WALPath(primDir))
	if err != nil {
		t.Fatalf("read primary log: %v", err)
	}
	cut := storage.WALPrefixLen(buf, applied)
	if err := os.WriteFile(db.WALPath(soloDir), buf[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if ck, err := os.ReadFile(db.CheckpointPath(primDir)); err == nil {
		if err := os.WriteFile(db.CheckpointPath(soloDir), ck, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	soloSess := db.NewSession()
	if _, err := soloSess.OpenWAL(soloDir); err != nil {
		t.Fatalf("solo recovery: %v", err)
	}
	defer soloSess.Close()

	// Same catalog on both sides of the comparison.
	rep.catalog.RLock()
	rt, _ := repSess.Table("t")
	repTuples := rt.Table.NumTuples()
	rep.catalog.RUnlock()
	st, ok := soloSess.Table("t")
	if !ok || st.Table.NumTuples() != repTuples {
		t.Fatalf("catalogs diverge: solo %v tuples, replica %d", st, repTuples)
	}

	// The resumed train must be bit-identical.
	if _, err := rc.Train(replResumeTrain, true, false); err != nil {
		t.Fatalf("resume train on promoted replica: %v", err)
	}
	if _, err := soloSess.Exec(replResumeTrain); err != nil {
		t.Fatalf("resume train on solo recovery: %v", err)
	}
	rep.catalog.RLock()
	rm, ok := repSess.Model("base2")
	rep.catalog.RUnlock()
	if !ok {
		t.Fatal("promoted replica lost base2")
	}
	sm, ok := soloSess.Model("base2")
	if !ok {
		t.Fatal("solo recovery lost base2")
	}
	if len(rm.W) == 0 || len(rm.W) != len(sm.W) {
		t.Fatalf("weight lengths: replica %d, solo %d", len(rm.W), len(sm.W))
	}
	for i := range rm.W {
		if rm.W[i] != sm.W[i] {
			t.Fatalf("weights diverge at [%d]: replica %v, solo %v", i, rm.W[i], sm.W[i])
		}
	}

	// The promoted replica is a writable primary.
	if _, err := rc.Exec(insertRows(5, 7)); err != nil {
		t.Fatalf("insert after failover: %v", err)
	}
}

// TestAutoCheckpointSurvivesCrash runs a child server with a tiny byte
// trigger so background compaction races live ingest, SIGKILLs it
// mid-storm, and asserts recovery: every acknowledged INSERT survives, at
// most one unacknowledged statement's rows appear, and a checkpoint
// actually happened.
func TestAutoCheckpointSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	addr, _, child := spawnHelper(t, dir, false, "4KB")

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(replCreate); err != nil {
		t.Fatalf("create: %v", err)
	}
	base := 0
	{
		// Count the synthetic table's seed tuples once.
		resp, err := c.Exec("SHOW TABLES")
		if err != nil {
			t.Fatalf("show tables: %v", err)
		}
		for _, row := range resp.Rows {
			if len(row) >= 2 && row[0] == "t" {
				fmt.Sscanf(row[1], "%d", &base)
			}
		}
		if base == 0 {
			t.Fatal("could not read seed tuple count from SHOW TABLES")
		}
	}

	// Ingest until at least one background compaction has landed, then a
	// little more so the kill hits ingest-after-checkpoint. The bound is wall
	// time, not a statement count: the checkpoint loop ticks on a timer, and
	// a fast host finishes any fixed count before its first tick.
	const rowsPer = 10
	acked := 0
	sawCkpt := false
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		if _, err := c.Exec(insertRows(rowsPer, i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		acked++
		if !sawCkpt {
			if _, err := os.Stat(db.CheckpointPath(dir)); err == nil {
				sawCkpt = true
				// A few more acked statements land in the post-checkpoint tail.
				for j := 0; j < 5; j++ {
					if _, err := c.Exec(insertRows(rowsPer, 10000+j)); err != nil {
						t.Fatalf("tail insert: %v", err)
					}
					acked++
				}
				break
			}
		}
	}
	if !sawCkpt {
		t.Fatal("background checkpoint never happened")
	}
	child.Process.Kill()
	child.Wait()

	sess := db.NewSession()
	if _, err := sess.OpenWAL(dir); err != nil {
		t.Fatalf("recovery after crash during compaction: %v", err)
	}
	defer sess.Close()
	ent, ok := sess.Table("t")
	if !ok {
		t.Fatal("table t lost")
	}
	got := ent.Table.NumTuples()
	min := base + acked*rowsPer
	if got < min || got > min+rowsPer {
		t.Fatalf("recovered %d tuples, want in [%d, %d]", got, min, min+rowsPer)
	}
}

// TestReplicaPredictFollowsApply: a replica's PREDICT snapshots live on its
// catalog entries, so nothing has to tell them about applied records. A warm
// replica shows an applied INSERT at once; a replicated DROP + CREATE and a
// wholesale snapshot install put new entries in the catalog, which start
// their snapshots empty.
func TestReplicaPredictFollowsApply(t *testing.T) {
	primSess := db.NewSession()
	if _, err := primSess.OpenWAL(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{replCreate, replBaseTrain} {
		if _, err := primSess.Exec(sql); err != nil {
			t.Fatalf("boot: %v", err)
		}
	}
	prim, err := New(Config{Addr: "127.0.0.1:0", Session: primSess, ReplicaListen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("primary New: %v", err)
	}
	defer prim.Close()
	repSess := db.NewSession()
	if _, err := repSess.OpenWAL(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	rep, err := New(Config{Addr: "127.0.0.1:0", Session: repSess, ReplicateFrom: prim.ReplicaAddr()})
	if err != nil {
		t.Fatalf("replica New: %v", err)
	}
	defer rep.Close()
	pc, err := Dial(prim.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	rc, err := Dial(rep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	const sql = "SELECT * FROM t PREDICT BY base LIMIT 4"
	onPrimary := func(stmt string) {
		t.Helper()
		if _, err := pc.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		waitApplied(t, rep, primSess.LastLSN())
	}
	served := func() int { return predictCount(t, sameAsBruteForce(t, rep, rc, sql)) }

	waitApplied(t, rep, primSess.LastLSN())
	n := served()
	onPrimary(insertRows(20, 0))
	if got := served(); got != n+20 {
		t.Fatalf("replica served %d tuples after an applied INSERT, want %d", got, n+20)
	}
	onPrimary("DROP TABLE t")
	onPrimary(`CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.03, order='shuffled') WITH device='ram', block_size=16KB`)
	if got := served(); got != 300 {
		t.Fatalf("replica served %d tuples of the replacing table, want 300", got)
	}

	prim.catalog.RLock()
	snap, frontier, err := primSess.ReplicationSnapshot()
	prim.catalog.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	rep.catalog.Lock()
	err = repSess.InstallReplicaSnapshot(snap, frontier)
	rep.catalog.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := served(); got != 300 {
		t.Fatalf("replica served %d tuples after a snapshot install, want 300", got)
	}
	onPrimary(insertRows(20, 1))
	if got := served(); got != 320 {
		t.Fatalf("replica served %d tuples after an INSERT on the installed snapshot, want 320", got)
	}
}
