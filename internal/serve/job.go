package serve

import (
	"context"
	"math"
	"strings"
	"sync"
	"time"

	"corgipile/internal/executor"
	"corgipile/internal/obs"
	"corgipile/internal/sqlparse"
)

// job is one queued or executing TRAIN statement. State transitions are
// guarded by mu; done is closed exactly once when the job reaches a
// terminal state, which is what Wait-style requests block on.
type job struct {
	id      string
	session string
	sql     string
	st      *sqlparse.Train
	detach  bool
	// trace is the submitting request's trace ID, stamped on every event
	// and span the job emits; traceGiven records whether the client chose
	// it (only then is it echoed on the wire, keeping trace-unaware
	// transcripts byte-identical).
	trace      string
	traceGiven bool
	// created is the submission time — the start of the queue span.
	created time.Time
	// events is the server's event ring (nil-safe); finish emits the
	// terminal job.* event here so every exit path is recorded.
	events *obs.EventLog

	// ctx is canceled by CANCEL, by the owning session disconnecting
	// (unless detached), or by server shutdown. The executor checks it
	// mid-epoch, so cancellation stops in-flight work promptly.
	ctx    context.Context
	cancel context.CancelFunc

	// feed receives one live RunStatus per epoch — the per-job /run?job=id
	// telemetry. reg is the job's private metrics registry, so per-epoch
	// breakdowns of concurrent jobs never cross-contaminate.
	feed *obs.RunFeed
	reg  *obs.Registry

	mu        sync.Mutex
	state     JobState
	model     string
	epochs    int // configured epoch count, set when the plan is built
	rows      []executor.EpochRow
	breakdown []obs.EpochMetrics
	errMsg    string
	// startedAt is when a worker picked the job up (zero while queued);
	// startedAt − created is the queue wait.
	startedAt time.Time
	// blockBytes is the source table's mean block size captured at prepare
	// time — the multiplier that turns the shuffle's block counter into the
	// job's estimated bytes read.
	blockBytes int64
	// finishedAt is when the job reached its terminal state — the input to
	// the server's age-based retention pruning.
	finishedAt time.Time
	done       chan struct{}
}

// breakdownRows returns the per-epoch cross-layer breakdown collected so
// far (partial for failed or canceled jobs).
func (j *job) breakdownRows() []obs.EpochMetrics {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.breakdown
}

// newJob returns a queued job whose context derives from parent.
func newJob(id, session, sql string, st *sqlparse.Train, detach bool, parent context.Context) *job {
	ctx, cancel := context.WithCancel(parent)
	reg := obs.New()
	// Peaks arm buffer-occupancy high-water tracking for JobStats: the
	// gauge itself holds only the last refill's fill level.
	reg.EnablePeaks()
	return &job{
		id:      id,
		session: session,
		sql:     sql,
		st:      st,
		detach:  detach,
		created: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		feed:    obs.NewRunFeed(),
		reg:     reg,
		state:   JobQueued,
		model:   strings.ToLower(st.ModelName),
		done:    make(chan struct{}),
	}
}

// tryStart moves a queued job to running. It returns false when the job
// was canceled while still queued — the worker then discards it.
func (j *job) tryStart() bool {
	if j.ctx.Err() != nil {
		// Canceled before any worker touched it (e.g. the owning session
		// vanished): complete the queued → canceled transition here.
		j.finish(JobCanceled, nil, "")
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.startedAt = time.Now()
	return true
}

// finish moves the job to a terminal state, recording the outcome, and
// releases waiters. Later calls are ignored (terminal states are final).
func (j *job) finish(state JobState, rows []executor.EpochRow, errMsg string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.rows = rows
	j.errMsg = errMsg
	j.finishedAt = time.Now()
	j.mu.Unlock()
	j.events.Record(obs.Event{Type: jobEventType(state), Trace: j.trace,
		Detail: "job=" + j.id, Err: errMsg})
	j.cancel() // release the context's resources in every path
	j.feed.Close()
	close(j.done)
}

// jobEventType maps a terminal job state to its event-log type.
func jobEventType(state JobState) string {
	switch state {
	case JobFailed:
		return obs.EvJobFailed
	case JobCanceled:
		return obs.EvJobCanceled
	default:
		return obs.EvJobDone
	}
}

// requestCancel cancels the job's context and, when the job has not yet
// been picked up by a worker, completes the queued → canceled transition
// directly (the worker will discard the stale queue entry).
func (j *job) requestCancel() {
	j.cancel()
	j.mu.Lock()
	queued := j.state == JobQueued
	j.mu.Unlock()
	if queued {
		j.finish(JobCanceled, nil, "")
	}
}

// active reports whether the job still occupies an admission slot
// (queued or running).
func (j *job) active() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.state.Terminal()
}

// status snapshots the job for the wire. Progress comes from the live feed
// for running jobs and from the final rows for done jobs; canceled jobs
// report only identity and state so transcripts stay deterministic.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, Session: j.session, State: j.state}
	if j.traceGiven {
		st.Trace = j.trace
	}
	if j.state == JobCanceled {
		return JobStatus{ID: j.id, Session: j.session, State: JobCanceled, Trace: st.Trace}
	}
	st.Model = j.model
	switch j.state {
	case JobRunning:
		if live, seq := j.feed.Status(); seq > 0 {
			st.Epoch = live.Epoch
			st.Epochs = live.Epochs
		}
	case JobDone:
		st.Epochs = j.epochs
		if n := len(j.rows); n > 0 {
			st.Epoch = j.rows[n-1].Epoch
			st.Loss = roundLoss(j.rows[n-1].AvgLoss)
		}
	case JobFailed:
		st.Error = j.errMsg
	}
	return st
}

// roundLoss rounds to six decimals so the JSON encoding is short and
// byte-stable across replays of the same seeded run.
func roundLoss(x float64) float64 { return math.Round(x*1e6) / 1e6 }

// statusWith is status plus, when asked, the resource-accounting block.
func (j *job) statusWith(withStats bool) JobStatus {
	st := j.status()
	if withStats {
		st.Stats = j.stats()
	}
	return st
}

// stats computes the job's resource accounting from its timestamps and
// private registry. Open-ended figures (queue wait of a queued job, wall
// time of a running one) report elapsed-so-far.
func (j *job) stats() *JobStats {
	j.mu.Lock()
	started, finished := j.startedAt, j.finishedAt
	blockBytes := j.blockBytes
	terminal := j.state.Terminal()
	j.mu.Unlock()
	st := &JobStats{}
	if started.IsZero() {
		// Never picked up: everything so far is queue wait. A job canceled
		// while queued keeps the wait it accrued (finishedAt set, started not).
		end := time.Now()
		if terminal {
			end = finished
		}
		st.QueueWaitMs = roundMs(end.Sub(j.created))
		return st
	}
	st.QueueWaitMs = roundMs(started.Sub(j.created))
	end := time.Now()
	if terminal {
		end = finished
	}
	st.WallMs = roundMs(end.Sub(started))
	st.CPUMs = roundMs(time.Duration(j.reg.Counter(obs.SGDGradNanos)))
	st.Tuples = j.reg.Counter(obs.SGDTuples)
	st.Blocks = j.reg.Counter(obs.ShuffleBlocks)
	st.BytesRead = st.Blocks * blockBytes
	st.PeakBufferOccupancy = j.reg.Peak(obs.ShuffleBufferOccupancy)
	return st
}

// roundMs renders a duration as milliseconds with microsecond precision.
func roundMs(d time.Duration) float64 {
	return math.Round(float64(d.Nanoseconds())/1e3) / 1e3
}
