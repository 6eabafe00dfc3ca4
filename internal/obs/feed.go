package obs

import (
	"encoding/json"
	"sync"
)

// RunStatus is one point-in-time view of a training run — the payload of
// the telemetry server's /run endpoint and of each SSE event. The training
// loop publishes one update per epoch (plus a final one with Done set).
type RunStatus struct {
	// Run labels the run (tool name plus workload/model, free-form).
	Run string `json:"run,omitempty"`
	// Epoch is the last completed epoch (1-based); Epochs the configured
	// total.
	Epoch  int `json:"epoch"`
	Epochs int `json:"epochs,omitempty"`
	// Loss is the epoch's mean streaming loss; TrainAcc the train-set
	// accuracy when evaluated.
	Loss     float64 `json:"loss"`
	TrainAcc float64 `json:"train_acc,omitempty"`
	// GradNorm, UpdateNorm, LossDelta and Verdict carry the convergence
	// diagnostics when enabled (see core.RunConfig.Diag).
	GradNorm   float64 `json:"grad_norm,omitempty"`
	UpdateNorm float64 `json:"update_norm,omitempty"`
	LossDelta  float64 `json:"loss_delta,omitempty"`
	Verdict    string  `json:"verdict,omitempty"`
	// Tuples counts examples consumed so far across the run.
	Tuples int64 `json:"tuples"`
	// BufferTuples and BufferOccupancy mirror the shuffle-buffer gauges
	// at publish time.
	BufferTuples    int64   `json:"buffer_tuples,omitempty"`
	BufferOccupancy float64 `json:"buffer_occupancy,omitempty"`
	// Faults aggregates the fault counters (transient errors, retries,
	// quarantined blocks, worker crashes) present at publish time.
	Faults map[string]int64 `json:"faults,omitempty"`
	// SimSeconds is simulated elapsed time (0 when training in memory);
	// WallSeconds is real elapsed time since the run started.
	SimSeconds  float64 `json:"sim_seconds,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	// Done marks the final update of a run.
	Done bool `json:"done,omitempty"`
}

// faultCounterNames are the registry counters folded into
// RunStatus.Faults by FillFrom.
var faultCounterNames = []string{
	IOFaultOps, IOStragglerOps, StorageRetries,
	StorageSkippedBlocks, StorageSkippedTuples,
}

// FillFrom populates the shuffle-buffer gauges and the non-zero fault
// counters from a registry snapshot — the registry-derived half of a
// status update.
func (st *RunStatus) FillFrom(s Snapshot) {
	st.BufferTuples = int64(s.Gauges[ShuffleBufferTuples])
	st.BufferOccupancy = s.Gauges[ShuffleBufferOccupancy]
	for _, name := range faultCounterNames {
		if v := s.Counters[name]; v != 0 {
			if st.Faults == nil {
				st.Faults = make(map[string]int64)
			}
			st.Faults[name] = v
		}
	}
}

// RunFeed publishes live RunStatus updates to any number of subscribers —
// the bridge between the training loop (one Publish per epoch) and the
// telemetry server's /run SSE stream. A second topic carries executed-plan
// profile snapshots (one per epoch), the /run/plan data. All methods are
// safe for concurrent use and no-ops on a nil feed, so instrumented code
// needs no conditionals.
type RunFeed struct {
	run  topic[RunStatus]
	plan topic[*PlanStats]
}

// NewRunFeed returns an empty feed.
func NewRunFeed() *RunFeed { return &RunFeed{} }

// Publish records st as the current status and fans it out to all
// subscribers. Slow subscribers drop updates rather than block the
// training loop.
func (f *RunFeed) Publish(st RunStatus) {
	if f != nil {
		f.run.publish(st)
	}
}

// Status returns the most recently published status and the number of
// updates published so far.
func (f *RunFeed) Status() (RunStatus, int64) {
	if f == nil {
		return RunStatus{}, 0
	}
	return f.run.status()
}

// Subscribe registers a new subscriber and returns its update channel plus
// a cancel function. The channel first holds the current status, when one
// was published, then every later update; updates that arrive while the
// subscriber is behind are dropped (the channel buffers a few). It is
// closed when cancel is called or the feed is shut down.
func (f *RunFeed) Subscribe() (<-chan []byte, func()) {
	if f == nil {
		return closedSubscription()
	}
	return f.run.subscribe()
}

// PublishPlan records p as the current executed-plan snapshot and fans it
// out (as JSON) to plan-topic subscribers. The feed keeps the pointer; the
// publisher must hand over an immutable snapshot (PlanProfile.Snapshot
// already clones).
func (f *RunFeed) PublishPlan(p *PlanStats) {
	if f != nil && p != nil {
		f.plan.publish(p)
	}
}

// PlanStatus returns the most recently published plan snapshot (nil before
// the first) and the number of plan updates published so far.
func (f *RunFeed) PlanStatus() (*PlanStats, int64) {
	if f == nil {
		return nil, 0
	}
	return f.plan.status()
}

// SubscribePlan registers a plan-topic subscriber; semantics mirror
// Subscribe.
func (f *RunFeed) SubscribePlan() (<-chan []byte, func()) {
	if f == nil {
		return closedSubscription()
	}
	return f.plan.subscribe()
}

// Close shuts the feed down: every subscriber channel (both topics) is
// closed and future subscriptions get only the current value. Publish
// becomes a recording-only no-op (the current value is still updated).
func (f *RunFeed) Close() {
	if f != nil {
		f.run.close()
		f.plan.close()
	}
}

// topic is one published value: the latest one, its JSON, how many were
// published, and the subscribers each one fans out to.
type topic[T any] struct {
	mu     sync.Mutex
	cur    T
	msg    []byte // cur as JSON
	seq    int64
	closed bool
	subs   map[chan []byte]struct{}
}

func (t *topic[T]) publish(v T) {
	msg, err := json.Marshal(v)
	if err != nil {
		return
	}
	t.mu.Lock()
	t.cur, t.msg = v, msg
	t.seq++
	for ch := range t.subs {
		select {
		case ch <- msg:
		default: // subscriber is behind; it still holds older updates
		}
	}
	t.mu.Unlock()
}

func (t *topic[T]) status() (T, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur, t.seq
}

// subscribe seeds the new channel with the current value under the same lock
// that registers it, so no update published around the subscription is
// missed or delivered twice.
func (t *topic[T]) subscribe() (<-chan []byte, func()) {
	ch := make(chan []byte, 8)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seq > 0 {
		ch <- t.msg
	}
	if t.closed {
		close(ch)
		return ch, func() {}
	}
	if t.subs == nil {
		t.subs = make(map[chan []byte]struct{})
	}
	t.subs[ch] = struct{}{}
	return ch, func() {
		t.mu.Lock()
		if _, ok := t.subs[ch]; ok {
			delete(t.subs, ch)
			close(ch)
		}
		t.mu.Unlock()
	}
}

func (t *topic[T]) close() {
	t.mu.Lock()
	if !t.closed {
		t.closed = true
		for ch := range t.subs {
			delete(t.subs, ch)
			close(ch)
		}
	}
	t.mu.Unlock()
}

// closedSubscription is a subscription to a nil feed: a closed channel.
func closedSubscription() (<-chan []byte, func()) {
	ch := make(chan []byte)
	close(ch)
	return ch, func() {}
}
