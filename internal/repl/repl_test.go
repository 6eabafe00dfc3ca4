package repl

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corgipile/internal/db"
	"corgipile/internal/obs"
)

const testCreate = `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.02, order='clustered') WITH device='ram', block_size=16KB`

// openSession opens a WAL-backed session over dir.
func openSession(t *testing.T, dir string) *db.Session {
	t.Helper()
	s := db.NewSession()
	if _, err := s.OpenWAL(dir); err != nil {
		t.Fatalf("OpenWAL(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// insertSQL builds an INSERT of n rows matching t's feature count.
func insertSQL(t *testing.T, s *db.Session, table string, n int) string {
	t.Helper()
	ent, ok := s.Table(table)
	if !ok {
		t.Fatalf("table %s missing", table)
	}
	feats := ent.Table.Features()
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for f := 0; f < feats; f++ {
			fmt.Fprintf(&b, "%.3f, ", float64(i*7+f)/97.0)
		}
		if i%2 == 0 {
			b.WriteString("1)")
		} else {
			b.WriteString("-1)")
		}
	}
	return b.String()
}

func mustExec(t *testing.T, s *db.Session, sql string) {
	t.Helper()
	if _, err := s.Exec(sql); err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// sameCatalog asserts the replica mirrors the primary: same tuple count in
// t, same weights in every named model.
func sameCatalog(t *testing.T, prim, rep *db.Session, models ...string) {
	t.Helper()
	pt, ok := prim.Table("t")
	if !ok {
		t.Fatal("primary lost table t")
	}
	rt, ok := rep.Table("t")
	if !ok {
		t.Fatal("replica missing table t")
	}
	if pt.Table.NumTuples() != rt.Table.NumTuples() {
		t.Fatalf("tuples: primary %d, replica %d", pt.Table.NumTuples(), rt.Table.NumTuples())
	}
	for _, m := range models {
		pm, ok := prim.Model(m)
		if !ok {
			t.Fatalf("primary lost model %s", m)
		}
		rm, ok := rep.Model(m)
		if !ok {
			t.Fatalf("replica missing model %s", m)
		}
		if len(pm.W) != len(rm.W) {
			t.Fatalf("model %s: weight length %d vs %d", m, len(pm.W), len(rm.W))
		}
		for i := range pm.W {
			if pm.W[i] != rm.W[i] {
				t.Fatalf("model %s: weight[%d] %v vs %v", m, i, pm.W[i], rm.W[i])
			}
		}
	}
}

// lockedSession pairs a session with the RWMutex discipline the serving
// plane uses: mutations under the write lock, the primary's snapshot
// cutter under the read lock.
type lockedSession struct {
	mu sync.RWMutex
	s  *db.Session
}

func (l *lockedSession) exec(t *testing.T, sql string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	mustExec(t, l.s, sql)
}

func TestReplicaCatchupSnapshotAndStream(t *testing.T) {
	primDir, repDir := t.TempDir(), t.TempDir()
	reg := obs.New()

	prim := &lockedSession{s: openSession(t, primDir)}
	prim.exec(t, testCreate)
	prim.exec(t, insertSQL(t, prim.s, "t", 40))
	prim.exec(t, `SELECT * FROM t TRAIN BY svm MODEL base WITH max_epoch_num=2, seed=7, shuffle='corgipile'`)

	p, err := StartPrimary(PrimaryConfig{
		Addr:    "127.0.0.1:0",
		Session: prim.s,
		Locker:  prim.mu.RLocker(),
		Obs:     reg,
	})
	if err != nil {
		t.Fatalf("StartPrimary: %v", err)
	}
	defer p.Close()

	// The primary started after its history was written, so the hub ring
	// is empty: a fresh replica must be caught up with a snapshot.
	repSess := openSession(t, repDir)
	var repMu sync.Mutex
	r, err := StartReplica(ReplicaConfig{
		Primary: p.Addr(),
		Session: repSess,
		Locker:  &repMu,
		Obs:     reg,
	})
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}

	want := prim.s.LastLSN()
	waitFor(t, "snapshot catch-up", func() bool { return r.AppliedLSN() >= want })
	if got := reg.Counter(obs.ReplSnapshots); got != 1 {
		t.Fatalf("snapshots = %d, want 1", got)
	}
	repMu.Lock()
	sameCatalog(t, prim.s, repSess, "base")
	repMu.Unlock()

	// Live tail: new records stream record-by-record.
	prim.exec(t, insertSQL(t, prim.s, "t", 25))
	prim.exec(t, `SELECT * FROM t TRAIN BY svm MODEL tail WITH max_epoch_num=1, seed=11, shuffle='corgipile'`)
	want = prim.s.LastLSN()
	waitFor(t, "live tail", func() bool { return r.AppliedLSN() >= want })
	repMu.Lock()
	sameCatalog(t, prim.s, repSess, "base", "tail")
	repMu.Unlock()
	waitFor(t, "lag gauge to settle", func() bool { return reg.Snapshot().Gauges[obs.ReplLagLSN] == 0 })

	// Disconnect, write a little more (still inside the ring), reconnect:
	// the replica resumes from its applied LSN without another snapshot.
	if err := r.Close(); err != nil {
		t.Fatalf("replica close: %v", err)
	}
	prim.exec(t, insertSQL(t, prim.s, "t", 10))
	r2, err := StartReplica(ReplicaConfig{
		Primary: p.Addr(),
		Session: repSess,
		Locker:  &repMu,
		Obs:     reg,
	})
	if err != nil {
		t.Fatalf("StartReplica(resume): %v", err)
	}
	defer r2.Close()
	want = prim.s.LastLSN()
	waitFor(t, "ring resume", func() bool { return r2.AppliedLSN() >= want })
	if got := reg.Counter(obs.ReplSnapshots); got != 1 {
		t.Fatalf("resume took a snapshot (snapshots = %d), want ring stream", got)
	}
	repMu.Lock()
	sameCatalog(t, prim.s, repSess, "base", "tail")
	repMu.Unlock()

	// Promote and confirm the replica directory stands alone: recovery
	// sees exactly the mirrored catalog.
	applied, err := r2.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if applied != want {
		t.Fatalf("promoted at LSN %d, want %d", applied, want)
	}
	if _, err := r2.Promote(); err != nil {
		t.Fatalf("second Promote: %v", err)
	}
	repSess.Close()
	solo := openSession(t, repDir)
	sameCatalog(t, prim.s, solo, "base", "tail")
}

// faultProxy sits between replica and primary, corrupting or cutting the
// primary→replica stream for the first few connections.
type faultProxy struct {
	t       *testing.T
	ln      net.Listener
	target  string
	mu      sync.Mutex
	conns   int
	faulty  int // connections 1..faulty misbehave
	wg      sync.WaitGroup
	closing bool
}

func newFaultProxy(t *testing.T, target string, faulty int) *faultProxy {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	fp := &faultProxy{t: t, ln: ln, target: target, faulty: faulty}
	fp.wg.Add(1)
	go fp.accept()
	t.Cleanup(fp.Close)
	return fp
}

func (fp *faultProxy) Addr() string { return fp.ln.Addr().String() }

func (fp *faultProxy) Close() {
	fp.mu.Lock()
	if fp.closing {
		fp.mu.Unlock()
		return
	}
	fp.closing = true
	fp.mu.Unlock()
	fp.ln.Close()
	fp.wg.Wait()
}

func (fp *faultProxy) accept() {
	defer fp.wg.Done()
	for {
		c, err := fp.ln.Accept()
		if err != nil {
			return
		}
		fp.mu.Lock()
		fp.conns++
		n := fp.conns
		fp.mu.Unlock()
		fp.wg.Add(1)
		go fp.relay(c, n)
	}
}

// relay forwards both directions. Faulty connections either flip a byte in
// the downstream (odd n: the replica sees a corrupt frame) or cut the
// connection after a byte budget (even n: a mid-stream drop).
func (fp *faultProxy) relay(c net.Conn, n int) {
	defer fp.wg.Done()
	defer c.Close()
	up, err := net.Dial("tcp", fp.target)
	if err != nil {
		return
	}
	defer up.Close()
	done := make(chan struct{}, 2)
	go func() { // replica → primary: acks pass through untouched
		io.Copy(up, c)
		up.Close()
		done <- struct{}{}
	}()
	go func() { // primary → replica
		faulty := n <= fp.faulty
		corrupt := faulty && n%2 == 1
		budget := int64(1 << 62)
		if faulty && n%2 == 0 {
			budget = 900
		}
		buf := make([]byte, 512)
		var sent, seen int64
		for sent < budget {
			m, err := up.Read(buf)
			if m > 0 {
				chunk := buf[:m]
				if corrupt && seen+int64(m) > 600 {
					// Flip one byte past the handshake line.
					chunk[m-1] ^= 0xA5
					corrupt = false
				}
				seen += int64(m)
				if rem := budget - sent; int64(len(chunk)) > rem {
					chunk = chunk[:rem]
				}
				w, werr := c.Write(chunk)
				sent += int64(w)
				if werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		c.Close()
		done <- struct{}{}
	}()
	<-done
	<-done
}

func TestReplicaTransportFaults(t *testing.T) {
	primDir, repDir := t.TempDir(), t.TempDir()
	reg := obs.New()

	prim := &lockedSession{s: openSession(t, primDir)}
	p, err := StartPrimary(PrimaryConfig{
		Addr:      "127.0.0.1:0",
		Session:   prim.s,
		Locker:    prim.mu.RLocker(),
		Heartbeat: 50 * time.Millisecond,
		Obs:       reg,
	})
	if err != nil {
		t.Fatalf("StartPrimary: %v", err)
	}
	defer p.Close()

	proxy := newFaultProxy(t, p.Addr(), 6)
	repSess := openSession(t, repDir)
	var repMu sync.Mutex
	r, err := StartReplica(ReplicaConfig{
		Primary:          proxy.Addr(),
		Session:          repSess,
		Locker:           &repMu,
		HeartbeatTimeout: 400 * time.Millisecond,
		Obs:              reg,
	})
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	defer r.Close()

	// Ingest through the fault storm: every record must arrive exactly
	// once despite corrupt frames and dropped connections.
	prim.exec(t, testCreate)
	for i := 0; i < 8; i++ {
		prim.exec(t, insertSQL(t, prim.s, "t", 15))
	}
	prim.exec(t, `SELECT * FROM t TRAIN BY svm MODEL m WITH max_epoch_num=1, seed=7, shuffle='corgipile'`)

	want := prim.s.LastLSN()
	waitFor(t, "replay through faults", func() bool { return r.AppliedLSN() >= want })
	repMu.Lock()
	sameCatalog(t, prim.s, repSess, "m")
	repMu.Unlock()

	if got := reg.Counter(obs.ReplReconnects); got < 1 {
		t.Fatalf("reconnects = %d, want >= 1 (proxy injected %d faulty conns)", got, 6)
	}
	// No double-apply: with no snapshot in play, the per-record apply
	// counter must equal the number of distinct LSNs, exactly.
	applies := reg.Counter(obs.ReplApplyRecords)
	snaps := reg.Counter(obs.ReplSnapshots)
	if snaps == 0 && applies != int64(want) {
		t.Fatalf("applied %d records for %d LSNs — double or missed apply", applies, want)
	}
	if snaps > 0 && applies > int64(want) {
		t.Fatalf("applied %d records for %d LSNs after snapshot — double apply", applies, want)
	}
}

// slowLocker delays every acquisition, simulating a replica whose apply
// path can't keep up with ingest.
type slowLocker struct {
	mu sync.Mutex
	d  atomic.Int64 // delay in nanoseconds
}

func (l *slowLocker) Lock() {
	time.Sleep(time.Duration(l.d.Load())) // the fault itself: a slow apply path, not a wait for anything
	l.mu.Lock()
}
func (l *slowLocker) Unlock() { l.mu.Unlock() }

func TestPrimaryShedsSlowReplica(t *testing.T) {
	primDir, repDir := t.TempDir(), t.TempDir()
	reg := obs.New()

	prim := &lockedSession{s: openSession(t, primDir)}
	prim.exec(t, testCreate)

	p, err := StartPrimary(PrimaryConfig{
		Addr:       "127.0.0.1:0",
		Session:    prim.s,
		Locker:     prim.mu.RLocker(),
		RingBytes:  1 << 14, // tiny ring: a shed replica usually needs a snapshot
		SendBuffer: 2,
		Obs:        reg,
	})
	if err != nil {
		t.Fatalf("StartPrimary: %v", err)
	}
	defer p.Close()

	repSess := openSession(t, repDir)
	slow := &slowLocker{}
	slow.d.Store(int64(10 * time.Millisecond))
	r, err := StartReplica(ReplicaConfig{
		Primary: p.Addr(),
		Session: repSess,
		Locker:  slow,
		Obs:     reg,
	})
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	defer r.Close()
	waitFor(t, "initial sync", func() bool { return r.AppliedLSN() >= prim.s.LastLSN() })

	// Burst faster than the replica drains: the bounded buffer overflows,
	// the subscriber is shed, and ingest never blocks.
	start := time.Now()
	for i := 0; i < 30; i++ {
		prim.exec(t, insertSQL(t, prim.s, "t", 20))
	}
	ingest := time.Since(start)
	slow.d.Store(0) // let the replica recover

	want := prim.s.LastLSN()
	waitFor(t, "resync after shed", func() bool { return r.AppliedLSN() >= want })
	if got := reg.Counter(obs.ReplSheds); got < 1 {
		t.Fatalf("sheds = %d, want >= 1", got)
	}
	if ingest > 10*time.Second {
		t.Fatalf("ingest blocked on slow replica: %v", ingest)
	}
	slow.Lock()
	sameCatalog(t, prim.s, repSess)
	slow.Unlock()
}

// AppliedLSN returns the replica's durable applied LSN.
func (r *Replica) AppliedLSN() uint64 { return r.cfg.Session.LastLSN() }
