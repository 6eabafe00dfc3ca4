package repl

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"corgipile/internal/db"
	"corgipile/internal/obs"
	"corgipile/internal/storage"
)

// ReplicaConfig configures StartReplica.
type ReplicaConfig struct {
	// Primary is the primary's replication address (its -replica-listen).
	Primary string
	// Session is the replica's own WAL-backed session; records are made
	// durable in it with the primary's LSNs preserved.
	Session *db.Session
	// Locker is held around every catalog mutation (snapshot install,
	// record apply); the serving plane passes the catalog's write lock so
	// readers never see a half-applied record. nil uses a no-op lock.
	Locker sync.Locker
	// HeartbeatTimeout is how long the stream may stay silent before the
	// primary is presumed dead (default 10s; must exceed the primary's
	// heartbeat interval).
	HeartbeatTimeout time.Duration
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// Dial overrides the transport (fault-injection tests). Default is a
	// plain TCP dial with DialTimeout.
	Dial func(addr string) (net.Conn, error)
	// Obs receives repl.* metrics (nil-safe).
	Obs *obs.Registry
	// Events, when non-nil, receives resync events (a diverged replica
	// rebuilding from a fresh snapshot) for the introspection plane.
	Events *obs.EventLog
}

func (cfg ReplicaConfig) withDefaults() ReplicaConfig {
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 10 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.Locker == nil {
		cfg.Locker = noopLocker{}
	}
	if cfg.Dial == nil {
		d := cfg.DialTimeout
		cfg.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, d)
		}
	}
	return cfg
}

// Replica maintains the connection to a primary, applying shipped records
// until Promote or Close stops it. All reconnects resume from the durable
// applied LSN; a record the replica already applied is skipped by the LSN
// guard, never double-applied.
type Replica struct {
	cfg  ReplicaConfig
	stop chan struct{}
	done chan struct{}

	mu        sync.Mutex
	conn      net.Conn
	stopped   bool
	forceSnap bool
}

// StartReplica begins streaming from cfg.Primary in the background. A
// primary that is down or unreachable is retried with backoff — the
// replica keeps trying until Close or Promote.
func StartReplica(cfg ReplicaConfig) (*Replica, error) {
	cfg = cfg.withDefaults()
	if cfg.Session == nil || !cfg.Session.Durable() {
		return nil, fmt.Errorf("repl: replica requires a WAL-backed session")
	}
	r := &Replica{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	go r.loop()
	return r, nil
}

// Promote stops replication, flushes the replica's WAL, and returns the
// applied LSN the new primary starts from. Idempotent.
func (r *Replica) Promote() (uint64, error) {
	r.shutdown()
	if err := r.cfg.Session.FlushWAL(); err != nil {
		return 0, err
	}
	return r.cfg.Session.LastLSN(), nil
}

// Close stops replication without promoting.
func (r *Replica) Close() error {
	r.shutdown()
	return nil
}

func (r *Replica) shutdown() {
	r.mu.Lock()
	if !r.stopped {
		r.stopped = true
		close(r.stop)
	}
	conn := r.conn
	r.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	<-r.done
}

// The replica's reconnect backoff doubles from reconnectBase up to
// reconnectMax.
const (
	reconnectBase = time.Millisecond
	reconnectMax  = 100 * time.Millisecond
)

// loop dials, streams, and backs off on failure, until promoted or closed.
// Backoff uses the storage.RetryPolicy equal-jitter schedule (seeded, so
// deterministic) and resets to the base delay after any session that made
// progress.
func (r *Replica) loop() {
	defer close(r.done)
	rng := rand.New(rand.NewSource(0))
	wait := reconnectBase
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		progressed, err := r.session()
		if err == nil || r.isStopped() {
			return
		}
		r.cfg.Obs.Inc(obs.ReplReconnects)
		if progressed {
			wait = reconnectBase
		}
		// Equal jitter, as in storage.RetryPolicy.Do.
		d := wait/2 + time.Duration(rng.Int63n(int64(wait/2)+1))
		select {
		case <-r.stop:
			return
		case <-time.After(d):
		}
		wait = min(2*wait, reconnectMax)
	}
}

func (r *Replica) isStopped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopped
}

// setConn records the live connection so shutdown can sever it; returns
// false when already stopped.
func (r *Replica) setConn(c net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return false
	}
	r.conn = c
	return true
}

// session runs one connection lifetime: handshake, optional snapshot
// catch-up, then the apply loop. It returns a nil error only when the
// replica is stopping; any transport or protocol failure returns non-nil
// and the caller reconnects.
func (r *Replica) session() (progressed bool, err error) {
	conn, err := r.cfg.Dial(r.cfg.Primary)
	if err != nil {
		return false, err
	}
	if !r.setConn(conn) {
		conn.Close()
		return false, nil
	}
	defer func() {
		conn.Close()
		r.mu.Lock()
		r.conn = nil
		stopped := r.stopped
		r.mu.Unlock()
		if stopped {
			err = nil
		}
	}()

	r.mu.Lock()
	force := r.forceSnap
	r.mu.Unlock()
	hello, err := json.Marshal(helloMsg{
		Magic: wireMagic, V: wireVersion,
		Applied: r.cfg.Session.LastLSN(), Snapshot: force,
	})
	if err != nil {
		return false, err
	}
	conn.SetWriteDeadline(time.Now().Add(r.cfg.DialTimeout))
	if _, err := conn.Write(append(hello, '\n')); err != nil {
		return false, err
	}
	conn.SetWriteDeadline(time.Time{})

	br := bufio.NewReaderSize(conn, 64<<10)
	conn.SetReadDeadline(time.Now().Add(r.cfg.HeartbeatTimeout))
	line, err := br.ReadBytes('\n')
	if err != nil {
		return false, err
	}
	var reply replyMsg
	if err := json.Unmarshal(line, &reply); err != nil {
		return false, fmt.Errorf("repl: handshake reply: %w", err)
	}
	if err := reply.validate(); err != nil {
		return false, err
	}

	if reply.Mode == modeSnapshot {
		r.cfg.Events.Emit(obs.EvReplResync, "", fmt.Sprintf("primary=%s frontier=%d", r.cfg.Primary, reply.Frontier))
		if err := r.installSnapshot(conn, br, reply.Frontier); err != nil {
			return false, err
		}
		progressed = true
		if err := r.ack(conn); err != nil {
			return progressed, err
		}
	}

	for {
		conn.SetReadDeadline(time.Now().Add(r.cfg.HeartbeatTimeout))
		rec, err := storage.ReadWALRecord(br)
		if err != nil {
			return progressed, err
		}
		if rec.Type == heartbeatType {
			r.updateLag(rec.LSN)
			if err := r.ack(conn); err != nil {
				return progressed, err
			}
			continue
		}
		r.cfg.Locker.Lock()
		err = r.cfg.Session.ApplyReplicated(rec)
		r.cfg.Locker.Unlock()
		switch {
		case err == nil:
			progressed = true
			r.cfg.Obs.Inc(obs.ReplApplyRecords)
		case errors.Is(err, storage.ErrStaleLSN):
			// A resend across a reconnect: already durable and applied.
		default:
			// The record logged or applied inconsistently — the catalog may
			// have diverged from the primary's history. Rebuild wholesale.
			r.mu.Lock()
			r.forceSnap = true
			r.mu.Unlock()
			return progressed, err
		}
		// Batch boundary: nothing else buffered. Make the batch durable and
		// ack it — the ack must never run ahead of the disk.
		if br.Buffered() == 0 {
			if err := r.cfg.Session.FlushWAL(); err != nil {
				return progressed, err
			}
			r.updateLag(rec.LSN)
			if err := r.ack(conn); err != nil {
				return progressed, err
			}
		}
	}
}

// installSnapshot reads checkpoint-format frames up to and including the
// WALCheckpoint terminator and installs the image wholesale.
func (r *Replica) installSnapshot(conn net.Conn, br *bufio.Reader, frontier uint64) error {
	var snap []byte
	for {
		conn.SetReadDeadline(time.Now().Add(r.cfg.HeartbeatTimeout))
		rec, err := storage.ReadWALRecord(br)
		if err != nil {
			return err
		}
		if rec.Type == heartbeatType {
			continue
		}
		snap = storage.AppendWALRecord(snap, rec)
		if rec.Type == storage.WALCheckpoint {
			break
		}
	}
	r.cfg.Locker.Lock()
	err := r.cfg.Session.InstallReplicaSnapshot(snap, frontier)
	if err == nil {
		r.mu.Lock()
		r.forceSnap = false
		r.mu.Unlock()
	}
	r.cfg.Locker.Unlock()
	if err != nil {
		return err
	}
	r.updateLag(frontier)
	return nil
}

// ack reports durable progress to the primary.
func (r *Replica) ack(conn net.Conn) error {
	line, err := json.Marshal(ackMsg{Applied: r.cfg.Session.LastLSN()})
	if err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(r.cfg.HeartbeatTimeout))
	_, err = conn.Write(append(line, '\n'))
	conn.SetWriteDeadline(time.Time{})
	return err
}

// updateLag exports the replica-side gauges: its durable applied LSN and
// its lag against the freshest frontier the stream has shown it.
func (r *Replica) updateLag(primaryLSN uint64) {
	applied := r.cfg.Session.LastLSN()
	r.cfg.Obs.SetGauge(obs.ReplAppliedLSN, float64(applied))
	var lag uint64
	if primaryLSN > applied {
		lag = primaryLSN - applied
	}
	r.cfg.Obs.SetGauge(obs.ReplLagLSN, float64(lag))
}
