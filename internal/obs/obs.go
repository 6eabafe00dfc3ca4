// Package obs is the cross-layer observability subsystem: a registry of
// named counters, gauges, and duration histograms, an event log of
// statement and epoch spans, and two exporters (a JSONL event stream and a
// human-readable epoch breakdown table).
//
// Every layer of the stack reports into one Registry — the simulated device
// (internal/iosim) its bytes, seeks, and cache hits; the shuffling
// strategies (internal/shuffle) their buffer refills and fill/consume
// times; the training loop (internal/core, internal/executor) its tuples,
// gradient-compute time, and per-epoch loss. The paper's entire evaluation
// rests on decomposing epoch time into I/O wait vs. shuffle vs. gradient
// compute (Figures 7–14); this package makes that decomposition available
// to every benchmark and to library users.
//
// Time can be either real or simulated: the registry's duration
// histograms are measured on a Clock, which *iosim.Clock satisfies
// (virtual time) and WallClock adapts (real time). All Registry methods
// are safe for concurrent use and are no-ops on a nil *Registry, so
// instrumented components need no conditionals.
//
// Telemetry is read, not pushed. Components record events as they happen
// (counters, histograms, gauges whose value exists only at that moment);
// a value its owner can compute at any time is a collector instead, which
// every Snapshot calls. Every reader (/metrics, corgi_metrics, run
// artifacts) goes through Snapshot, so all of them see the same state and
// no goroutine exists to refresh a gauge.
//
// The package depends only on the standard library and internal/stats
// (itself dependency-free), so any layer may import it without cycles.
package obs

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Clock is the minimal time source a registry measures durations on.
// *iosim.Clock satisfies it with simulated time; WallClock adapts real time.
type Clock interface {
	Now() time.Duration
}

// WallClock measures real elapsed time since its construction.
type WallClock struct {
	base time.Time
}

// NewWallClock returns a wall clock starting now.
func NewWallClock() *WallClock { return &WallClock{base: time.Now()} }

// Now implements Clock.
func (w *WallClock) Now() time.Duration { return time.Since(w.base) }

// Well-known metric names. Components across the stack report under these
// keys so that exporters (and Snapshot deltas) can assemble a per-epoch
// breakdown without knowing who produced which number.
const (
	// Device layer (internal/iosim). Counters except where noted.
	IOReadOps       = "io.read.ops"
	IOReadBytes     = "io.read.bytes"
	IOWriteOps      = "io.write.ops"
	IOWriteBytes    = "io.write.bytes"
	IOSeeks         = "io.read.seeks"  // read accesses that paid a seek
	IOWriteSeeks    = "io.write.seeks" // write accesses that paid a seek
	IOCacheHitBytes = "io.cache.hit_bytes"
	IOTimeNanos     = "io.time_ns" // total simulated device time, ns

	// Fault-injection and resilience layers (internal/iosim FaultPlan,
	// internal/shuffle ResilientSource).
	IOFaultOps           = "io.fault.transient"        // injected transient read errors
	IOStragglerOps       = "io.fault.stragglers"       // reads that paid a latency spike
	StorageRetries       = "storage.retry.attempts"    // block-read retry attempts
	StorageBackoffNanos  = "storage.retry.backoff_ns"  // simulated backoff time, ns
	StorageSkippedBlocks = "storage.quarantine.blocks" // blocks quarantined by SkipCorrupt
	StorageSkippedTuples = "storage.quarantine.tuples" // tuples lost to quarantined blocks

	// Shuffle layer (internal/shuffle, executor.TupleShuffleOp).
	ShuffleRefills      = "shuffle.refills"    // buffer refill operations
	ShuffleBlocks       = "shuffle.blocks"     // blocks pulled into buffers
	ShuffleFillNanos    = "shuffle.fill_ns"    // time spent filling buffers
	ShuffleConsumeNanos = "shuffle.consume_ns" // time consumers spent draining

	// Shuffle-buffer fill level, set on every refill.
	ShuffleBufferTuples    = "shuffle.buffer.tuples"    // tuples in the shuffle buffer after the last refill
	ShuffleBufferOccupancy = "shuffle.buffer.occupancy" // filled fraction of the buffer budget

	// Convergence diagnostics (internal/core, enabled via RunConfig.Diag).
	SGDGradNorm   = "sgd.grad_norm"   // gauge: last epoch's RMS per-step gradient norm
	SGDUpdateNorm = "sgd.update_norm" // gauge: last epoch's weight-delta L2 norm
	SGDLossDelta  = "sgd.loss_delta"  // gauge: previous epoch loss minus last epoch loss

	// Training layer (internal/core, executor.SGDOp, ml.Trainer).
	SGDTuples    = "sgd.tuples"
	SGDBatches   = "sgd.batches" // optimizer steps taken
	SGDGradNanos = "sgd.grad_ns" // simulated gradient-compute time, ns
	SGDLoss      = "sgd.loss"    // gauge: last epoch's mean streaming loss

	// Durability layer (internal/storage WAL, internal/db recovery).
	WALAppends         = "wal.appends"                // records appended
	WALAppendBytes     = "wal.append_bytes"           // framed bytes appended
	WALSyncs           = "wal.syncs"                  // explicit fsyncs
	WALReplayRecords   = "wal.replay.records"         // records replayed at recovery
	WALReplayTruncated = "wal.replay.truncated_bytes" // torn-tail bytes discarded

	// Replication layer (internal/repl). The primary exports the publish
	// counters and the aggregate lag gauges (worst replica); a replica
	// exports the apply counters and its own lag against the primary's
	// heartbeat frontier.
	ReplPublishRecords = "repl.publish.records" // records published to the stream
	ReplPublishBytes   = "repl.publish.bytes"   // framed bytes published
	ReplReplicas       = "repl.replicas"        // gauge: connected replicas
	ReplLagLSN         = "repl.lag_lsn"         // gauge: primary LSN minus slowest applied LSN
	ReplLagBytes       = "repl.lag_bytes"       // gauge: ring bytes the slowest replica hasn't acked
	ReplSnapshots      = "repl.snapshots"       // snapshot catch-ups served
	ReplSheds          = "repl.sheds"           // slow subscribers shed to resync
	ReplHeartbeats     = "repl.heartbeats"      // heartbeat frames sent
	ReplReconnects     = "repl.reconnects"      // replica reconnect attempts after a drop
	ReplApplyRecords   = "repl.apply.records"   // records applied by the replica
	ReplAppliedLSN     = "repl.applied_lsn"     // gauge: replica's durable applied LSN

	// Serving-plane durability (internal/serve).
	ServeCheckpoints = "serve.checkpoints" // scheduled auto-checkpoint compactions

	// Serving-plane latency and load (internal/serve). ServePredict is a
	// duration histogram of wire PREDICT statements, so corgi_metrics
	// carries serve.predict_p50/_p95/_p99 and /metrics a summary of the
	// same quantiles; the job gauges come from the server's collector.
	ServePredict     = "serve.predict"      // histogram: wire PREDICT latency
	ServeJobsRunning = "serve.jobs_running" // gauge: jobs currently executing
	ServeJobsQueued  = "serve.jobs_queued"  // gauge: jobs waiting for a worker

	// Predict-snapshot work (internal/db/predict.go): what a PREDICT
	// paid beyond its own rows. A warm statement moves none of them.
	ServePredictFills         = "serve.predict.fills"          // first PREDICTs on a table
	ServePredictCatchupBlocks = "serve.predict.catchup_blocks" // appended blocks a PREDICT brought under its snapshot
	ServePredictTallied       = "serve.predict.tallied_tuples" // tuples scored into a model's running tally

	// WAL visibility gauges, read by the server's collector so compaction
	// behavior shows up on /metrics without SQL access.
	WALSizeBytes     = "wal.size_bytes"             // gauge: live WAL file size
	WALLastLSN       = "wal.last_lsn"               // gauge: last appended LSN
	WALCheckpointAge = "wal.checkpoint_age_seconds" // gauge: age of the newest checkpoint

	// Duration histograms, measured on the registry's clock.
	SpanEpoch    = "epoch"
	SpanRefill   = "shuffle.refill"
	SpanRecovery = "wal.recovery"
)

// histBuckets is the number of log2(ns) histogram buckets: bucket 0 counts
// zero durations, bucket i counts observations with 2^(i−1) ≤ ns < 2^i, and
// the last bucket also takes everything longer (bits.Len64 of the value,
// clamped).
const histBuckets = 40

// hist is a duration histogram with log2 buckets.
type hist struct {
	count    int64
	sum      time.Duration
	min, max time.Duration
	buckets  [histBuckets]int64
}

func (h *hist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	b := bits.Len64(uint64(d))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b]++
}

// Registry is a lock-protected collection of named counters, gauges, and
// duration histograms, plus an optional JSONL sink. The zero value is not
// usable; construct with New. All methods are no-ops on a nil receiver.
type Registry struct {
	mu       sync.Mutex
	clock    Clock
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*hist
	// collectors report gauges computed at read time (AddCollector).
	collectors []Collector
	// peaks, when EnablePeaks armed it, records the high-water mark of
	// every gauge set since. Peaks are read through Peak only and never
	// appear in Snapshot or the exporters, so arming them cannot perturb
	// traces or scrapes. The serving plane arms them on each job's private
	// registry for JobStats' peak buffer occupancy.
	peaks map[string]float64

	sink *jsonlSink
}

// New returns an empty registry measuring on a fresh wall clock.
func New() *Registry {
	return &Registry{
		clock:    NewWallClock(),
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*hist),
	}
}

// WithClock switches the registry's time source (e.g. to the simulation's
// *iosim.Clock) and returns the registry.
func (r *Registry) WithClock(c Clock) *Registry {
	if r == nil || c == nil {
		return r
	}
	r.mu.Lock()
	r.clock = c
	r.mu.Unlock()
	return r
}

// Now reads the registry's clock; 0 on a nil registry. A component times an
// interval by reading Now where it opens and Observing Now minus that where
// it ends (Observe clamps a negative interval, which the simulated clock
// can give when a pipelined component sets it back, at zero).
func (r *Registry) Now() time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	clock := r.clock
	r.mu.Unlock()
	return clock.Now()
}

// Collector reports gauges computed when a registry is read: it calls set
// once per gauge. It runs outside the registry's lock, may take its owner's
// locks, and must not call back into the registry.
type Collector func(set func(name string, v float64))

// AddCollector registers c: every Snapshot calls it and takes what it
// reports as gauges of that snapshot only. The registry stores nothing, so
// Gauge does not see collected values.
func (r *Registry) AddCollector(c Collector) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// Add increments the named counter by delta.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Inc increments the named counter by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// AddDuration adds d (in nanoseconds) to the named counter. By convention
// such counters carry a "_ns" suffix.
func (r *Registry) AddDuration(name string, d time.Duration) {
	if d < 0 {
		return
	}
	r.Add(name, int64(d))
}

// Counter returns the named counter's current value.
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// SetGauge sets the named gauge.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.trackPeakLocked(name, v)
	r.mu.Unlock()
}

// EnablePeaks arms gauge high-water-mark tracking (see Peak).
func (r *Registry) EnablePeaks() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.peaks == nil {
		r.peaks = make(map[string]float64)
	}
	r.mu.Unlock()
}

// Peak returns the highest value the named gauge was set to since
// EnablePeaks. Zero when peaks were never armed or the gauge never set.
func (r *Registry) Peak(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peaks[name]
}

// trackPeakLocked folds v into the gauge's high-water mark when peak
// tracking is armed. Callers hold r.mu.
func (r *Registry) trackPeakLocked(name string, v float64) {
	if r.peaks == nil {
		return
	}
	if cur, ok := r.peaks[name]; !ok || v > cur {
		r.peaks[name] = v
	}
}

// DeleteGauge removes the named gauge from the registry entirely, so it
// stops appearing in snapshots and Prometheus exposition. A promoted
// replica uses this to retire its replication-lag gauges — a stale lag
// reading on a server that no longer replicates would mislead scrapers.
func (r *Registry) DeleteGauge(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.gauges, name)
	r.mu.Unlock()
}

// Gauge returns the named gauge's current value.
func (r *Registry) Gauge(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Observe records one duration into the named histogram.
func (r *Registry) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &hist{}
		r.hists[name] = h
	}
	h.observe(d)
	r.mu.Unlock()
}

// HistSnapshot is an immutable copy of one histogram's state.
type HistSnapshot struct {
	Count    int64
	Sum      time.Duration
	Min, Max time.Duration
	// Buckets[i] counts observations with 2^(i−1) ≤ ns < 2^i; Buckets[0]
	// counts zero durations and the last bucket everything from 2^38 ns up.
	Buckets [histBuckets]int64
}

// Snapshot is a point-in-time copy of every metric in a registry. Deltas
// between two snapshots give per-interval (e.g. per-epoch) metrics.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]float64
	Hists    map[string]HistSnapshot
}

// Snapshot copies the registry's current state and adds what its
// collectors report now. A nil registry yields an empty (but usable)
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]float64),
		Hists:    make(map[string]HistSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	for k, h := range r.hists {
		s.Hists[k] = HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Buckets: h.buckets}
	}
	collectors := r.collectors
	r.mu.Unlock()
	for _, c := range collectors {
		c(func(name string, v float64) { s.Gauges[name] = v })
	}
	return s
}

// DeltaFrom returns the change from prev to s: counters and histogram
// count/sum subtract; gauges and histogram min/max keep s's values.
func (s Snapshot) DeltaFrom(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters: make(map[string]int64, len(s.Counters)),
		Gauges:   make(map[string]float64, len(s.Gauges)),
		Hists:    make(map[string]HistSnapshot, len(s.Hists)),
	}
	for k, v := range s.Counters {
		d.Counters[k] = v - prev.Counters[k]
	}
	for k, v := range s.Gauges {
		d.Gauges[k] = v
	}
	for k, h := range s.Hists {
		p := prev.Hists[k]
		dh := HistSnapshot{Count: h.Count - p.Count, Sum: h.Sum - p.Sum, Min: h.Min, Max: h.Max}
		for i := range h.Buckets {
			dh.Buckets[i] = h.Buckets[i] - p.Buckets[i]
		}
		d.Hists[k] = dh
	}
	return d
}

// CounterDur reads a "_ns" counter from a snapshot as a duration.
func (s Snapshot) CounterDur(name string) time.Duration {
	return time.Duration(s.Counters[name])
}

// quantiles are the histogram quantiles every view derives (the flat
// series and the Prometheus summaries), with the suffix each flat series
// takes.
var quantiles = []struct {
	q      float64
	suffix string
}{{0.50, "_p50"}, {0.95, "_p95"}, {0.99, "_p99"}}

// Metric is one series of a flattened snapshot: a counter or gauge under
// its own name, or one of a histogram's derived series (<name>_count, and
// <name>_p50/_p95/_p99 in seconds).
type Metric struct {
	Name string
	// Kind is "counter", "gauge" or "histogram".
	Kind  string
	Value float64
}

// Text renders the value: series that only grow (a counter or a
// histogram's _count) as integers, everything else in the shortest form
// of up to nine significant digits.
func (m Metric) Text() string {
	if m.Kind == "counter" || (m.Kind == "histogram" && strings.HasSuffix(m.Name, "_count")) {
		return strconv.FormatFloat(m.Value, 'f', -1, 64)
	}
	return strconv.FormatFloat(m.Value, 'g', 9, 64)
}

// Flatten lists every series of s, sorted by name: the one flat form
// corgi_metrics and the totals table render.
func (s Snapshot) Flatten() []Metric {
	out := make([]Metric, 0, len(s.Counters)+len(s.Gauges)+(1+len(quantiles))*len(s.Hists))
	for name, v := range s.Counters {
		out = append(out, Metric{name, "counter", float64(v)})
	}
	for name, v := range s.Gauges {
		out = append(out, Metric{name, "gauge", v})
	}
	for name, h := range s.Hists {
		out = append(out, Metric{name + "_count", "histogram", float64(h.Count)})
		for _, q := range quantiles {
			out = append(out, Metric{name + q.suffix, "histogram", h.Quantile(q.q).Seconds()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
