package repl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"corgipile/internal/db"
	"corgipile/internal/obs"
	"corgipile/internal/storage"
)

// PrimaryConfig configures StartPrimary.
type PrimaryConfig struct {
	// Addr is the TCP address to serve the replication stream on.
	Addr string
	// Session is the WAL-backed session whose records are shipped.
	Session *db.Session
	// Locker is held while cutting a snapshot or registering a subscriber;
	// it must exclude WAL appends (the serving plane passes the catalog's
	// read lock — appends all run under the write lock). nil means the
	// caller serializes appends some other way and a no-op lock is used.
	Locker sync.Locker
	// RingBytes bounds the in-memory catch-up ring (default 4 MiB).
	RingBytes int64
	// SendBuffer is each subscriber's buffered record count; a replica
	// whose buffer fills, or whose acked LSN falls behind the ring, is shed
	// and resynced (default 256).
	SendBuffer int
	// Heartbeat is the idle keep-alive interval (default 2s).
	Heartbeat time.Duration
	// WriteTimeout bounds each frame write; a replica that can't drain its
	// socket within it is disconnected, not waited on (default 10s).
	WriteTimeout time.Duration
	// Obs receives the publish counters, and the primary adds its lag
	// collector to it (nil-safe).
	Obs *obs.Registry
	// Events, when non-nil, receives replica connect/shed/disconnect events
	// for the introspection plane (nil-safe).
	Events *obs.EventLog
}

func (cfg PrimaryConfig) withDefaults() PrimaryConfig {
	if cfg.RingBytes <= 0 {
		cfg.RingBytes = 4 << 20
	}
	if cfg.SendBuffer <= 0 {
		cfg.SendBuffer = 256
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.Locker == nil {
		cfg.Locker = noopLocker{}
	}
	return cfg
}

type noopLocker struct{}

func (noopLocker) Lock()   {}
func (noopLocker) Unlock() {}

// Primary serves the replication stream. Ingest never blocks on it: the
// WAL notify hook only appends to the hub ring and offers frames to
// bounded buffers.
type Primary struct {
	cfg  PrimaryConfig
	ln   net.Listener
	hub  *hub
	done chan struct{}

	mu     sync.Mutex
	conns  map[*primConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// primConn tracks one replica connection's acked progress.
type primConn struct {
	remote  string
	applied atomic.Uint64
	sheds   atomic.Int64
}

// ReplicaStatus is one connected replica's progress as seen by the primary,
// surfaced through the corgi_replication system table.
type ReplicaStatus struct {
	// Remote is the replica connection's remote address.
	Remote string
	// AppliedLSN is the last LSN the replica acked as durably applied.
	AppliedLSN uint64
	// LagLSN is the primary's last published LSN minus AppliedLSN.
	LagLSN uint64
	// Sheds counts how many times this connection overflowed its send
	// buffer or lagged past the ring and was resynced.
	Sheds int64
}

// Replicas snapshots every connected replica's status, sorted is not
// guaranteed — callers order the rows themselves.
func (p *Primary) Replicas() []ReplicaStatus {
	last := p.hub.last()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ReplicaStatus, 0, len(p.conns))
	for pc := range p.conns {
		st := ReplicaStatus{
			Remote:     pc.remote,
			AppliedLSN: pc.applied.Load(),
			Sheds:      pc.sheds.Load(),
		}
		if last > st.AppliedLSN {
			st.LagLSN = last - st.AppliedLSN
		}
		out = append(out, st)
	}
	return out
}

// StartPrimary opens the replication listener and begins publishing every
// record the session's WAL appends from now on.
func StartPrimary(cfg PrimaryConfig) (*Primary, error) {
	cfg = cfg.withDefaults()
	if cfg.Session == nil || !cfg.Session.Durable() {
		return nil, fmt.Errorf("repl: primary requires a WAL-backed session")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("repl: listen: %w", err)
	}
	p := &Primary{
		cfg:   cfg,
		ln:    ln,
		hub:   newHub(cfg.Session.LastLSN(), cfg.RingBytes),
		done:  make(chan struct{}),
		conns: make(map[*primConn]struct{}),
	}
	cfg.Session.WAL().WithNotify(func(rec storage.WALRecord) {
		n := p.hub.publish(rec)
		p.cfg.Obs.Inc(obs.ReplPublishRecords)
		p.cfg.Obs.Add(obs.ReplPublishBytes, int64(n))
	})
	cfg.Obs.AddCollector(p.collectLag)
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the listener's address.
func (p *Primary) Addr() string { return p.ln.Addr().String() }

// Close stops accepting replicas, disconnects the connected ones, and
// detaches from the session's WAL.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.done)
	p.cfg.Session.WAL().WithNotify(nil)
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Primary) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.wg.Add(1)
		go p.handle(c)
	}
}

// handle owns one replica connection: handshake, catch-up, stream, and the
// shed → resync loop.
func (p *Primary) handle(c net.Conn) {
	defer p.wg.Done()
	defer c.Close()

	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	c.SetReadDeadline(time.Now().Add(p.cfg.WriteTimeout))
	if !sc.Scan() {
		return
	}
	var hello helloMsg
	if err := json.Unmarshal(sc.Bytes(), &hello); err != nil || hello.validate() != nil {
		return
	}
	c.SetReadDeadline(time.Time{})

	pc := &primConn{remote: c.RemoteAddr().String()}
	pc.applied.Store(hello.Applied)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.conns[pc] = struct{}{}
	p.mu.Unlock()
	p.cfg.Events.Emit(obs.EvReplConnect, "", fmt.Sprintf("remote=%s applied=%d", pc.remote, hello.Applied))
	defer func() {
		p.mu.Lock()
		delete(p.conns, pc)
		p.mu.Unlock()
		p.cfg.Events.Emit(obs.EvReplDisconnect, "", fmt.Sprintf("remote=%s applied=%d", pc.remote, pc.applied.Load()))
	}()

	// Ack reader: the replica reports durable progress on the same
	// connection. Closing c on exit unblocks the writer below.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		defer c.Close()
		for sc.Scan() {
			var ack ackMsg
			if json.Unmarshal(sc.Bytes(), &ack) != nil {
				return
			}
			pc.applied.Store(ack.Applied)
		}
	}()

	bw := bufio.NewWriterSize(c, 64<<10)
	applied, force := hello.Applied, hello.Snapshot
	for {
		sub, reply, snap, err := p.catchup(applied, force, &pc.applied)
		if err != nil {
			break
		}
		force = false
		if reply.Mode == modeSnapshot {
			p.cfg.Obs.Inc(obs.ReplSnapshots)
		}
		line, err := json.Marshal(reply)
		if err != nil {
			p.hub.unsubscribe(sub)
			break
		}
		c.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
		bw.Write(line)
		bw.WriteByte('\n')
		bw.Write(snap)
		if err := bw.Flush(); err != nil {
			p.hub.unsubscribe(sub)
			break
		}

		err = p.stream(c, bw, sub)
		p.hub.unsubscribe(sub)
		if err != nil {
			break
		}
		// Shed: the subscriber overflowed or lagged past the ring. Re-run
		// catch-up from the acked LSN — served from the ring when it still
		// covers it, otherwise a fresh snapshot.
		p.cfg.Obs.Inc(obs.ReplSheds)
		pc.sheds.Add(1)
		applied = pc.applied.Load()
		p.cfg.Events.Emit(obs.EvReplShed, "", fmt.Sprintf("remote=%s applied=%d", pc.remote, applied))
	}
	<-ackDone
}

// catchup decides how to bring a replica at `applied` up to date. Under
// the catalog lock (excluding appends) it either subscribes directly —
// the ring covers everything past applied — or cuts a full snapshot and
// subscribes from its frontier. acked is the connection's acked LSN, which
// the hub watches to shed the subscriber once it lags past the ring.
func (p *Primary) catchup(applied uint64, force bool, acked *atomic.Uint64) (*subscriber, replyMsg, []byte, error) {
	p.cfg.Locker.Lock()
	defer p.cfg.Locker.Unlock()
	last := p.cfg.Session.LastLSN()
	if !force && applied <= last {
		if sub, ok := p.hub.subscribe(applied, p.cfg.SendBuffer, acked); ok {
			return sub, replyMsg{Magic: wireMagic, V: wireVersion, Mode: modeStream, Frontier: applied}, nil, nil
		}
	}
	snap, frontier, err := p.cfg.Session.ReplicationSnapshot()
	if err != nil {
		return nil, replyMsg{}, nil, err
	}
	sub, ok := p.hub.subscribe(frontier, p.cfg.SendBuffer, acked)
	if !ok {
		return nil, replyMsg{}, nil, fmt.Errorf("repl: ring behind its own frontier")
	}
	return sub, replyMsg{Magic: wireMagic, V: wireVersion, Mode: modeSnapshot, Frontier: frontier}, snap, nil
}

// stream forwards frames until the connection dies (error), the primary
// closes (error), or the subscriber is shed (nil — caller resyncs).
func (p *Primary) stream(c net.Conn, bw *bufio.Writer, sub *subscriber) error {
	hb := time.NewTicker(p.cfg.Heartbeat)
	defer hb.Stop()
	for {
		select {
		case frame := <-sub.ch:
			c.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
			if _, err := bw.Write(frame); err != nil {
				return err
			}
			// Batch whatever else is ready before flushing.
		drain:
			for {
				select {
				case f := <-sub.ch:
					if _, err := bw.Write(f); err != nil {
						return err
					}
				default:
					break drain
				}
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		case <-sub.gone:
			return nil
		case <-hb.C:
			frame := storage.AppendWALRecord(nil, storage.WALRecord{LSN: p.hub.last(), Type: heartbeatType})
			c.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
			if _, err := bw.Write(frame); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			p.cfg.Obs.Inc(obs.ReplHeartbeats)
		case <-p.done:
			return fmt.Errorf("repl: primary closed")
		}
	}
}

// collectLag is the primary's registry collector: connected replicas, and
// the slowest one's lag in LSNs and in ring bytes it has not acked. With no
// replica connected all three read zero.
func (p *Primary) collectLag(set func(string, float64)) {
	reps := p.Replicas()
	var lag uint64
	var pending int64
	if len(reps) > 0 {
		minApplied := ^uint64(0)
		for _, r := range reps {
			lag = max(lag, r.LagLSN)
			minApplied = min(minApplied, r.AppliedLSN)
		}
		pending = p.hub.pendingBytes(minApplied)
	}
	set(obs.ReplReplicas, float64(len(reps)))
	set(obs.ReplLagLSN, float64(lag))
	set(obs.ReplLagBytes, float64(pending))
}
