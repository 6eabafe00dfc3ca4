// Package serve implements corgiserved: a long-lived, multi-session
// training and prediction server over the in-DB ML stack — the serving
// plane the paper's PostgreSQL integration implies. Clients speak a
// newline-delimited JSON protocol (documented in docs/PROTOCOL.md) over
// TCP; TRAIN statements become queued background jobs with admission
// control and cancellation, while PREDICT statements are answered inline
// at high QPS from decoded tables and running per-model tallies.
//
// Concurrency discipline: one RWMutex guards the shared db.Session
// catalog. Statement execution is split so the lock is held only around
// catalog access — a TRAIN job prepares its plan under RLock, runs its
// epochs (the long part) with no lock at all, and installs the trained
// model under the write lock; a PREDICT prepares under RLock and scores
// outside it over the table's immutable decoded image. DDL takes the write
// lock.
package serve

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"corgipile/internal/db"
	"corgipile/internal/executor"
	"corgipile/internal/obs"
	"corgipile/internal/repl"
	"corgipile/internal/sqlparse"
)

// Config configures a server. The zero value of every field has a usable
// default; Addr "" listens on 127.0.0.1:0 (read the bound address back
// with Server.Addr).
type Config struct {
	// Addr is the listen address (host:port; port 0 picks a free port).
	Addr string
	// Workers is the number of concurrent TRAIN executors (default 2).
	// Each worker runs one job at a time; more workers trade per-job
	// latency for throughput on the shared simulated devices.
	Workers int
	// QueueDepth bounds the pending-job queue (default 8). A full queue
	// rejects new TRAINs with ERR_QUEUE_FULL — admission control, so a
	// burst degrades into fast rejections instead of unbounded memory.
	QueueDepth int
	// SessionMax caps one session's active (queued + running) jobs
	// (default 2); exceeding it rejects with ERR_SESSION_BUSY.
	SessionMax int
	// Telemetry, when non-empty, serves the obs HTTP plane on this address:
	// /metrics over the server registry, /run?job=<id> over each job's
	// private feed, /debug/pprof/.
	Telemetry string
	// RunRoot, when non-empty, writes per-job durable artifacts under
	// RunRoot/<job id>/ (manifest.json, epochs.jsonl).
	RunRoot string
	// RetainJobs caps how many finished (done/failed/canceled) jobs the
	// server keeps for status queries (default 64). Without a cap the job
	// map grows without bound on a long-lived server — every TRAIN ever
	// submitted stays resident along with its feed and metrics registry.
	// Active jobs are never pruned and don't count against the cap.
	RetainJobs int
	// RetainJobAge prunes finished jobs older than this even under the cap
	// (default 15m; negative disables age pruning).
	RetainJobAge time.Duration
	// Session, when non-nil, is the catalog to serve (e.g. preloaded with
	// tables); nil opens a fresh db.NewSession.
	Session *db.Session
	// ReplicaListen, when non-empty, serves the WAL-shipping replication
	// stream on this address (host:port; port 0 picks a free port). Requires
	// a WAL-backed Session. Read the bound address back with ReplicaAddr.
	ReplicaListen string
	// ReplicateFrom, when non-empty, boots this server as a read-only
	// replica of the primary at that replication address: the catalog
	// mirrors the primary's WAL, PREDICT and read-only SQL are served, and
	// mutating statements are rejected with ERR_READ_ONLY until PROMOTE.
	// Requires a WAL-backed Session.
	ReplicateFrom string
	// CheckpointEvery, when positive, compacts the WAL in the background at
	// this interval (same atomic-rename path as the CHECKPOINT statement).
	CheckpointEvery time.Duration
	// CheckpointBytes, when positive, compacts whenever the live log grows
	// past this size. Either trigger arms the background loop.
	CheckpointBytes int64
	// Events, when non-nil, is the event ring the server records into;
	// nil uses the session's ring or creates a fresh one. The ring backs
	// corgi_events/corgi_spans and costs nothing when nothing reads it.
	Events *obs.EventLog
	// SlowStatement, when positive, arms slow-statement detection:
	// statements slower than this get a companion "statement.slow" event.
	SlowStatement time.Duration
	// ReadyMaxLag is the replication lag (in LSNs) above which a replica
	// reports not-ready on /readyz (0 demands a fully caught-up replica).
	ReadyMaxLag uint64
}

// Server is a running corgiserved instance. Create one with New, stop it
// with Close; both are safe to call from any goroutine.
type Server struct {
	cfg    Config
	ln     net.Listener
	dbs    *db.Session
	reg    *obs.Registry
	tel    *obs.Server
	events *obs.EventLog

	// catalog serializes db.Session catalog access: RLock for lookups
	// (predict, train prepare), Lock for mutations (DDL, model install).
	catalog sync.RWMutex

	queue chan *job

	mu       sync.Mutex
	jobs     map[string]*job
	jobOrder []string
	// pruned keeps a bounded summary of retention-pruned jobs so
	// corgi_jobs can still answer "what happened to j3" after the full
	// record is gone (the wire status op keeps returning ERR_NOT_FOUND).
	pruned   []prunedJob
	sessions map[string]*sessionInfo
	nextJob  int
	nextSess int
	closed   bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	conns   map[net.Conn]struct{}
	connsMu sync.Mutex

	// replMu guards the replication roles; they change on PROMOTE.
	replMu  sync.Mutex
	replica *repl.Replica
	primary *repl.Primary
	// primPtr mirrors primary for lock-free reads: the corgi_replication
	// table runs under the catalog read lock and must not take replMu
	// (PROMOTE holds replMu while taking the catalog write lock — the
	// reverse order would deadlock).
	primPtr  atomic.Pointer[repl.Primary]
	ckptStop chan struct{}
	ckptDone chan struct{}
}

// prunedJob is the summary corgi_jobs keeps for a retention-pruned job.
type prunedJob struct {
	id      string
	session string
	model   string
	state   JobState
	trace   string
}

// maxPrunedSummaries bounds the pruned-job summary list; the oldest
// summaries fall off first.
const maxPrunedSummaries = 256

// sessionInfo is one live client connection's entry in corgi_sessions.
type sessionInfo struct {
	id        string
	remote    string
	connected time.Time
	requests  atomic.Int64
}

// New starts a server on cfg.Addr and returns once the listener is bound
// and the workers are running.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.SessionMax <= 0 {
		cfg.SessionMax = 2
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 64
	}
	if cfg.RetainJobAge == 0 {
		cfg.RetainJobAge = 15 * time.Minute
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen on %s: %w", cfg.Addr, err)
	}
	sess := cfg.Session
	if sess == nil {
		sess = db.NewSession()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		dbs:      sess,
		reg:      obs.New(),
		queue:    make(chan *job, cfg.QueueDepth),
		jobs:     make(map[string]*job),
		sessions: make(map[string]*sessionInfo),
		conns:    make(map[net.Conn]struct{}),
		ctx:      ctx,
		cancel:   cancel,
	}
	// Event ring: prefer the config's, else the session's (a caller may
	// have attached one before handing the session over), else a fresh
	// default-size ring. The session records statement events into the
	// same ring, so corgi_events shows one coherent timeline.
	el := cfg.Events
	if el == nil {
		el = sess.Events()
	}
	if el == nil {
		el = obs.NewEventLog(0)
	}
	s.events = el
	sess.WithEvents(el)
	if cfg.SlowStatement > 0 {
		el.SetSlowThreshold(cfg.SlowStatement)
	}
	s.registerIntrospection()
	s.reg.AddCollector(s.collectGauges)
	// The shared registry aggregates device I/O across all jobs and backs
	// corgi_metrics whether or not /metrics serves it; each job's own feed
	// serves /run?job=<id>.
	s.dbs.WithMetrics(s.reg)
	if cfg.Telemetry != "" {
		tel, err := obs.Serve(obs.ServeConfig{
			Addr:     cfg.Telemetry,
			Registry: s.reg,
			Feeds:    s.feedFor,
			Health:   func() error { return nil },
			Ready:    s.readyProbe,
		})
		if err != nil {
			ln.Close()
			cancel()
			return nil, err
		}
		s.tel = tel
	}
	fail := func(err error) (*Server, error) {
		ln.Close()
		cancel()
		if s.tel != nil {
			s.tel.Close()
		}
		return nil, err
	}
	if cfg.ReplicateFrom != "" {
		if !sess.Durable() {
			return fail(fmt.Errorf("serve: -replicate-from requires a WAL-backed session (-wal)"))
		}
		// The catalog is read-only until PROMOTE; the replica applies the
		// primary's records under the catalog write lock so reads (PREDICT,
		// SHOW) never see a half-applied record.
		sess.SetReadOnly(true)
		rep, err := repl.StartReplica(repl.ReplicaConfig{
			Primary: cfg.ReplicateFrom,
			Session: sess,
			Locker:  &s.catalog,
			Obs:     s.reg,
			Events:  s.events,
		})
		if err != nil {
			return fail(err)
		}
		s.replica = rep
	} else if cfg.ReplicaListen != "" {
		p, err := s.startPrimary()
		if err != nil {
			return fail(err)
		}
		s.primary = p
		s.primPtr.Store(p)
	}
	if sess.Durable() && (cfg.CheckpointEvery > 0 || cfg.CheckpointBytes > 0) {
		s.ckptStop = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go s.checkpointLoop()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// collectGauges is the server registry's collector: job-state counts and,
// on a durable session, the WAL's size, last LSN and checkpoint age (time
// since recovery when no checkpoint has committed), read at the instant
// /metrics or corgi_metrics reads the registry. It takes s.mu only (never
// the catalog lock), so it cannot deadlock with query paths.
func (s *Server) collectGauges(set func(string, float64)) {
	s.mu.Lock()
	running, queued := 0, 0
	for _, j := range s.jobs {
		j.mu.Lock()
		switch j.state {
		case JobRunning:
			running++
		case JobQueued:
			queued++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	set(obs.ServeJobsRunning, float64(running))
	set(obs.ServeJobsQueued, float64(queued))
	if s.dbs.Durable() {
		set(obs.WALSizeBytes, float64(s.dbs.WALSize()))
		set(obs.WALLastLSN, float64(s.dbs.LastLSN()))
		if age, ok := s.dbs.CheckpointAge(); ok {
			set(obs.WALCheckpointAge, age.Seconds())
		}
	}
}

// startPrimary opens the replication listener over the shared catalog. The
// snapshot cutter runs under the catalog read lock: appends (which run
// under the write lock) are excluded, concurrent PREDICTs are not.
func (s *Server) startPrimary() (*repl.Primary, error) {
	if !s.dbs.Durable() {
		return nil, fmt.Errorf("serve: -replica-listen requires a WAL-backed session (-wal)")
	}
	return repl.StartPrimary(repl.PrimaryConfig{
		Addr:    s.cfg.ReplicaListen,
		Session: s.dbs,
		Locker:  s.catalog.RLocker(),
		Obs:     s.reg,
		Events:  s.events,
	})
}

// ReplicaAddr returns the bound replication-stream address ("" when the
// server is not publishing one).
func (s *Server) ReplicaAddr() string {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.primary == nil {
		return ""
	}
	return s.primary.Addr()
}

// checkpointLoop compacts the WAL in the background whenever the
// configured interval elapses or the live log outgrows the byte trigger.
// It runs only when one of the two is set.
// Compaction takes the catalog write lock briefly — the same path as the
// CHECKPOINT statement — so ingest observed before the checkpoint is
// exactly what recovery replays after it.
func (s *Server) checkpointLoop() {
	defer close(s.ckptDone)
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	last := time.Now()
	for {
		select {
		case <-s.ckptStop:
			return
		case now := <-tick.C:
			due := s.cfg.CheckpointEvery > 0 && now.Sub(last) >= s.cfg.CheckpointEvery
			if !due && s.cfg.CheckpointBytes > 0 && s.dbs.WALSize() >= s.cfg.CheckpointBytes {
				due = true
			}
			if !due {
				continue
			}
			s.catalog.Lock()
			_, err := s.dbs.Checkpoint()
			s.catalog.Unlock()
			last = time.Now()
			if err == nil {
				s.reg.Inc(obs.ServeCheckpoints)
			}
		}
	}
}

// readyProbe implements /readyz: a replica is ready when its replication
// lag is within ReadyMaxLag; a primary (or standalone durable server) is
// ready while its WAL is not poisoned. In-memory servers are always
// ready.
func (s *Server) readyProbe() error {
	if s.dbs.ReadOnly() {
		lag := uint64(s.reg.Gauge(obs.ReplLagLSN))
		if lag > s.cfg.ReadyMaxLag {
			return fmt.Errorf("replica lag %d lsn exceeds ready-max-lag %d", lag, s.cfg.ReadyMaxLag)
		}
		return nil
	}
	if s.dbs.Durable() {
		if err := s.dbs.WAL().Poisoned(); err != nil {
			return fmt.Errorf("wal poisoned: %v", err)
		}
	}
	return nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// TelemetryURL returns the telemetry plane's base URL ("" when disabled).
func (s *Server) TelemetryURL() string { return s.tel.URL() }

// Close shuts the server down: the listener closes, every open connection
// is dropped, in-flight jobs are canceled, and Close blocks until all
// session handlers and workers have exited. Safe to call twice.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	// Stop the background maintainers and replication roles first: the
	// checkpoint loop and the replica both take the catalog lock, and the
	// primary hooks the session's WAL — all must be quiet before teardown.
	if s.ckptStop != nil {
		close(s.ckptStop)
		<-s.ckptDone
	}
	s.replMu.Lock()
	rep, prim := s.replica, s.primary
	s.replMu.Unlock()
	if rep != nil {
		rep.Close()
	}
	if prim != nil {
		prim.Close()
	}

	s.cancel()
	err := s.ln.Close()
	s.connsMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connsMu.Unlock()
	// Drain the queue so no worker blocks on it, then let workers observe
	// the canceled context.
	close(s.queue)
	s.wg.Wait()
	for _, j := range s.snapshotJobs() {
		j.finish(JobCanceled, nil, "")
	}
	if s.tel != nil {
		return s.tel.Close()
	}
	return err
}

// feedFor resolves a job id to its live feed (the telemetry ?job= hook).
func (s *Server) feedFor(id string) *obs.RunFeed {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j.feed
	}
	return nil
}

// pruneJobsLocked enforces the job retention policy: finished jobs past
// RetainJobAge are dropped, and when more than RetainJobs finished jobs
// remain, the oldest are dropped down to the cap. Active (queued/running)
// jobs are never touched, so admission accounting and in-flight status
// queries stay correct; a status query for a pruned id gets ERR_NOT_FOUND,
// same as an id that never existed. Caller holds s.mu.
func (s *Server) pruneJobsLocked(now time.Time) {
	finished := 0
	for _, id := range s.jobOrder {
		if !s.jobs[id].active() {
			finished++
		}
	}
	keep := s.jobOrder[:0]
	for _, id := range s.jobOrder {
		j := s.jobs[id]
		j.mu.Lock()
		terminal := j.state.Terminal()
		age := now.Sub(j.finishedAt)
		j.mu.Unlock()
		drop := terminal && (finished > s.cfg.RetainJobs ||
			(s.cfg.RetainJobAge > 0 && age > s.cfg.RetainJobAge))
		if drop {
			finished--
			j.mu.Lock()
			s.pruned = append(s.pruned, prunedJob{
				id: j.id, session: j.session, model: j.model,
				state: j.state, trace: j.trace,
			})
			j.mu.Unlock()
			if n := len(s.pruned); n > maxPrunedSummaries {
				s.pruned = append(s.pruned[:0], s.pruned[n-maxPrunedSummaries:]...)
			}
			s.events.Emit(obs.EvJobPruned, j.trace, "job="+id)
			delete(s.jobs, id)
		} else {
			keep = append(keep, id)
		}
	}
	s.jobOrder = keep
}

// snapshotJobs returns the jobs in submission order.
func (s *Server) snapshotJobs() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*job, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		out = append(out, s.jobs[id])
	}
	return out
}

// acceptLoop admits connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (shutdown)
		}
		s.connsMu.Lock()
		if s.ctx.Err() != nil {
			// Close canceled before it swept s.conns: a connection
			// accepted since would never be closed by it.
			s.connsMu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.connsMu.Unlock()
		si := &sessionInfo{remote: conn.RemoteAddr().String(), connected: time.Now()}
		s.mu.Lock()
		s.nextSess++
		si.id = fmt.Sprintf("s%d", s.nextSess)
		s.sessions[si.id] = si
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleSession(si, conn)
	}
}

// submitTrain applies admission control and enqueues a TRAIN job. It
// returns the job or an error response explaining the rejection.
func (s *Server) submitTrain(sessID string, st *sqlparse.Train, sql string, detach bool, parent context.Context, trace string, traceGiven bool) (*job, *Response) {
	if s.dbs.ReadOnly() {
		// Rejecting before admission keeps the queue clean: a replica's
		// TRAIN would only fail later at the model-install write.
		return nil, errResponse(ErrReadOnly,
			"server is a read-only replica (PROMOTE to enable training)")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errResponse(ErrShutdown, "server is shutting down")
	}
	s.pruneJobsLocked(time.Now())
	active := 0
	for _, j := range s.jobs {
		if j.session == sessID && j.active() {
			active++
		}
	}
	if active >= s.cfg.SessionMax {
		s.mu.Unlock()
		return nil, errResponse(ErrSessionBusy,
			"session %s already has %d active jobs (limit %d); wait or cancel one",
			sessID, active, s.cfg.SessionMax)
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		return nil, errResponse(ErrQueueFull,
			"train queue is full (%d pending); retry later", s.cfg.QueueDepth)
	}
	s.nextJob++
	id := fmt.Sprintf("j%d", s.nextJob)
	if detach {
		// Detached jobs outlive their session: derive from the server.
		parent = s.ctx
	}
	j := newJob(id, sessID, sql, st, detach, parent)
	j.trace, j.traceGiven = trace, traceGiven
	j.events = s.events
	s.jobs[id] = j
	s.jobOrder = append(s.jobOrder, id)
	// Queued must be on record before the job is handed over: a worker may
	// emit job.running the moment the send lands. The send cannot block —
	// this is the only sender and it holds s.mu, so the room checked above
	// is still there.
	s.events.Emit(obs.EvJobQueued, trace, "job="+id+" model="+j.model)
	s.queue <- j
	s.mu.Unlock()
	return j, nil
}

// worker executes queued jobs until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j, ok := <-s.queue:
			if !ok {
				return
			}
			s.runJob(j)
			// Shed finished jobs as work completes, not only on the next
			// submission — an idle server must not hold churned jobs until
			// a client happens to reconnect.
			s.mu.Lock()
			s.pruneJobsLocked(time.Now())
			s.mu.Unlock()
		}
	}
}

// runJob drives one job through prepare → execute → install, holding the
// catalog lock only around the catalog phases.
func (s *Server) runJob(j *job) {
	if !j.tryStart() {
		return // canceled while queued
	}
	// The queue span covers submission to worker pickup; the running
	// event marks the transition the acceptance test polls for.
	s.events.RecordSpan(j.trace, obs.EvSpanQueue, j.created, time.Since(j.created))
	s.events.Emit(obs.EvJobRunning, j.trace, "job="+j.id)
	s.catalog.RLock()
	pt, err := s.dbs.PrepareTrain(j.st, executor.TrainConfig{
		Ctx:     j.ctx,
		Metrics: j.reg,
		Feed:    j.feed,
		RunName: j.id + " train " + strings.ToLower(j.st.ModelName),
		Events:  s.events,
		Trace:   j.trace,
	})
	s.catalog.RUnlock()
	if err != nil {
		j.finish(JobFailed, nil, err.Error())
		return
	}
	j.mu.Lock()
	j.epochs = pt.Op().Epochs
	j.blockBytes = pt.AvgBlockBytes()
	j.mu.Unlock()

	rows, err := pt.Execute()
	j.mu.Lock()
	j.breakdown = pt.Op().Result().Breakdown
	j.mu.Unlock()
	if err != nil {
		if j.ctx.Err() != nil {
			j.finish(JobCanceled, nil, "")
		} else {
			j.finish(JobFailed, nil, err.Error())
		}
		s.writeArtifacts(j, pt.Seed())
		return
	}

	isp := s.events.StartSpan(j.trace, obs.EvSpanInstall)
	s.catalog.Lock()
	entry, err := s.dbs.InstallModel(pt, rows)
	if err != nil {
		s.catalog.Unlock()
		isp.End()
		j.finish(JobFailed, nil, err.Error())
		s.writeArtifacts(j, pt.Seed())
		return
	}
	s.catalog.Unlock()
	isp.End()

	j.mu.Lock()
	j.model = entry.Name
	j.mu.Unlock()
	j.finish(JobDone, rows, "")
	s.writeArtifacts(j, pt.Seed())
}

// writeArtifacts persists the job's durable run directory when RunRoot is
// configured: manifest.json identifying the job and its plan's seed,
// epochs.jsonl with the per-epoch cross-layer breakdown and metrics.prom
// from the job's private registry.
func (s *Server) writeArtifacts(j *job, seed int64) {
	if s.cfg.RunRoot == "" {
		return
	}
	st := j.status()
	// Artifacts are best-effort; the job outcome already stands.
	_ = obs.WriteRunDir(filepath.Join(s.cfg.RunRoot, j.id), obs.RunArtifacts{
		Manifest: obs.Manifest{
			Tool: "corgiserved",
			Run:  j.id + " " + string(st.State) + " " + st.Model,
			Seed: seed,
			Config: map[string]any{
				"sql":     j.sql,
				"session": j.session,
				"state":   st.State,
			},
		},
		Epochs:  j.breakdownRows(),
		Metrics: j.reg,
	})
}
