package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Well-known event types. Every layer that emits into the EventLog uses
// one of these so `SELECT * FROM corgi_events WHERE type = '...'` works
// without grepping source.
const (
	EvStatementStart  = "statement.start"
	EvStatementFinish = "statement.finish"
	EvStatementSlow   = "statement.slow"
	EvJobQueued       = "job.queued"
	EvJobRunning      = "job.running"
	EvJobDone         = "job.done"
	EvJobFailed       = "job.failed"
	EvJobCanceled     = "job.canceled"
	EvJobPruned       = "job.pruned"
	EvCheckpoint      = "checkpoint"
	EvRecovery        = "wal.recovery"
	EvWALSyncFailure  = "wal.sync_failure"
	EvReplConnect     = "repl.connect"
	EvReplDisconnect  = "repl.disconnect"
	EvReplShed        = "repl.shed"
	EvReplResync      = "repl.resync"
	EvPromote         = "promote"
)

// Well-known wall-clock span names recorded into the EventLog (distinct
// from Registry spans, which run on the — possibly simulated — session
// clock and feed histograms).
const (
	EvSpanStatement = "statement"
	EvSpanQueue     = "queue"
	EvSpanEpoch     = "epoch"
	EvSpanInstall   = "install"
)

// Event is one structured point event: a statement starting or
// finishing, a job changing state, a checkpoint, a replica being shed.
// Events carry wall-clock time (they describe operations of a live
// server, not simulated I/O) and the trace ID of the wire request that
// caused them, when one exists.
type Event struct {
	Seq    int64   `json:"seq"`
	TimeMs int64   `json:"t_ms"`
	Type   string  `json:"type"`
	Trace  string  `json:"trace,omitempty"`
	Detail string  `json:"detail,omitempty"`
	DurMs  float64 `json:"dur_ms,omitempty"`
	Err    string  `json:"err,omitempty"`
}

// SpanRecord is one completed wall-clock interval attributed to a trace:
// the life of a statement, a job's time in queue, one training epoch,
// the model install. `SELECT * FROM corgi_spans WHERE trace_id = '...'`
// reconstructs a request's timeline from these.
type SpanRecord struct {
	Seq     int64   `json:"seq"`
	Trace   string  `json:"trace,omitempty"`
	Name    string  `json:"name"`
	StartMs int64   `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
}

// EventLog is a bounded lock-free ring of typed events plus a sibling
// ring of trace-scoped spans. Writers never block and never allocate
// beyond the one event they store: an append is an atomic sequence
// bump plus an atomic pointer store into a fixed power-of-two ring, so
// hot paths (the WAL, the replication hub, the epoch loop) can emit
// unconditionally. Readers take a torn-free snapshot by loading slot
// pointers — a concurrent writer replaces whole events, never mutates
// one in place.
//
// An EventLog is optional everywhere it is threaded: every method is a
// no-op on a nil receiver, so idle cost is a nil check. It is entirely
// separate from the Registry — attaching an EventLog never changes a
// run's breakdown rows (TestTracePurity pins this).
type EventLog struct {
	ring  []atomic.Pointer[Event]
	spans []atomic.Pointer[SpanRecord]

	seq     atomic.Int64
	spanSeq atomic.Int64
	slowNs  atomic.Int64
	sink    atomic.Pointer[jsonlSink]
}

// DefaultEventLogSize is the ring capacity used when NewEventLog is
// given a non-positive size.
const DefaultEventLogSize = 1024

// NewEventLog builds an event log whose event and span rings hold n
// entries each, rounded up to a power of two (default 1024).
func NewEventLog(n int) *EventLog {
	if n <= 0 {
		n = DefaultEventLogSize
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &EventLog{
		ring:  make([]atomic.Pointer[Event], size),
		spans: make([]atomic.Pointer[SpanRecord], size),
	}
}

// Record appends one event, stamping its sequence number and (when the
// caller left it zero) its wall-clock time. The stored event is
// returned. No-op on a nil log.
func (el *EventLog) Record(ev Event) Event {
	if el == nil {
		return ev
	}
	ev.Seq = el.seq.Add(1)
	if ev.TimeMs == 0 {
		ev.TimeMs = time.Now().UnixMilli()
	}
	stored := ev
	el.ring[int((ev.Seq-1)&int64(len(el.ring)-1))].Store(&stored)
	if s := el.sink.Load(); s != nil {
		s.emit(eventLine{Ev: "event", Event: stored})
	}
	return ev
}

// Emit appends a plain event with no duration or error payload.
func (el *EventLog) Emit(typ, trace, detail string) {
	if el == nil {
		return
	}
	el.Record(Event{Type: typ, Trace: trace, Detail: detail})
}

// Events returns the surviving events in sequence order — at most the
// ring capacity, oldest entries overwritten first.
func (el *EventLog) Events() []Event {
	if el == nil {
		return nil
	}
	out := make([]Event, 0, len(el.ring))
	for i := range el.ring {
		if p := el.ring[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// RecordSpan appends one completed wall-clock span.
func (el *EventLog) RecordSpan(trace, name string, start time.Time, d time.Duration) {
	if el == nil {
		return
	}
	seq := el.spanSeq.Add(1)
	rec := &SpanRecord{
		Seq:     seq,
		Trace:   trace,
		Name:    name,
		StartMs: start.UnixMilli(),
		DurMs:   float64(d) / float64(time.Millisecond),
	}
	el.spans[int((seq-1)&int64(len(el.spans)-1))].Store(rec)
	if s := el.sink.Load(); s != nil {
		s.emit(spanLine{Ev: "tracespan", SpanRecord: *rec})
	}
}

// Spans returns the surviving span records in sequence order.
func (el *EventLog) Spans() []SpanRecord {
	if el == nil {
		return nil
	}
	out := make([]SpanRecord, 0, len(el.spans))
	for i := range el.spans {
		if p := el.spans[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// EventSpan is an in-flight wall-clock span. End records it; both the
// zero value and spans started on a nil log end as no-ops.
type EventSpan struct {
	el    *EventLog
	trace string
	name  string
	start time.Time
}

// StartSpan opens a wall-clock span attributed to trace. On a nil log
// it returns a no-op span without reading the clock.
func (el *EventLog) StartSpan(trace, name string) EventSpan {
	if el == nil {
		return EventSpan{}
	}
	return EventSpan{el: el, trace: trace, name: name, start: time.Now()}
}

// End closes the span and records it, returning the duration.
func (sp EventSpan) End() time.Duration {
	if sp.el == nil {
		return 0
	}
	d := time.Since(sp.start)
	sp.el.RecordSpan(sp.trace, sp.name, sp.start, d)
	return d
}

// SetSlowThreshold arms slow-statement detection: statements whose
// execution exceeds d get a companion EvStatementSlow event. Zero
// disarms it.
func (el *EventLog) SetSlowThreshold(d time.Duration) {
	if el == nil {
		return
	}
	el.slowNs.Store(int64(d))
}

// Slow reports whether a statement of duration d crosses the armed
// slow threshold.
func (el *EventLog) Slow(d time.Duration) bool {
	if el == nil {
		return false
	}
	t := el.slowNs.Load()
	return t > 0 && int64(d) >= t
}

// StatementStart records statement.start for a statement of the given kind
// ("train t", "predict t", ...) and returns the time it started. On a nil log it returns the zero time without reading the clock.
func (el *EventLog) StatementStart(trace, kind string) time.Time {
	if el == nil {
		return time.Time{}
	}
	el.Emit(EvStatementStart, trace, kind)
	return time.Now()
}

// StatementFinish closes what StatementStart opened at start: it records
// statement.finish, carrying errText when the statement failed, and a
// statement.slow companion when it ran past the slow threshold.
func (el *EventLog) StatementFinish(trace, kind string, start time.Time, errText string) {
	if el == nil {
		return
	}
	d := time.Since(start)
	ms := float64(d) / float64(time.Millisecond)
	el.Record(Event{Type: EvStatementFinish, Trace: trace, Detail: kind, DurMs: ms, Err: errText})
	if el.Slow(d) {
		el.Record(Event{Type: EvStatementSlow, Trace: trace, Detail: kind, DurMs: ms})
	}
}

// StreamTo attaches a JSONL sink: every subsequent event and span is
// additionally written to w as one JSON object per line (`"ev":"event"`
// / `"ev":"tracespan"`).
func (el *EventLog) StreamTo(w io.Writer) *EventLog {
	if el == nil || w == nil {
		return el
	}
	el.sink.Store(&jsonlSink{enc: json.NewEncoder(w)})
	return el
}

// jsonlSink serializes lines to one writer, one JSON object per line.
type jsonlSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func (s *jsonlSink) emit(v any) {
	s.mu.Lock()
	// Encode appends the newline; errors are deliberately dropped — losing
	// an event line must never fail a statement or a training run.
	_ = s.enc.Encode(v)
	s.mu.Unlock()
}

type eventLine struct {
	Ev string `json:"ev"`
	Event
}

type spanLine struct {
	Ev string `json:"ev"`
	SpanRecord
}
