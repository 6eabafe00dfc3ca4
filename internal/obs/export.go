package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"corgipile/internal/stats"
)

// jsonlSink serializes events to one writer, one JSON object per line.
type jsonlSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func (s *jsonlSink) emit(v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	// Encode appends the newline; errors are deliberately dropped — losing
	// a trace line must never fail a training run.
	_ = s.enc.Encode(v)
	s.mu.Unlock()
}

// StreamTo attaches a JSONL event sink: every epoch breakdown, point event
// and explicit snapshot is written to w as one JSON object per line. It
// returns the registry.
func (r *Registry) StreamTo(w io.Writer) *Registry {
	if r == nil || w == nil {
		return r
	}
	sink := &jsonlSink{enc: json.NewEncoder(w)}
	r.mu.Lock()
	r.sink = sink
	r.mu.Unlock()
	return r
}

func (r *Registry) getSink() *jsonlSink {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sink
}

// EmitEpoch streams one epoch's breakdown as a JSONL event — the
// machine-readable twin of the WriteEpochTable rendering.
func (r *Registry) EmitEpoch(m EpochMetrics) {
	sink := r.getSink()
	if sink == nil {
		return
	}
	sink.emit(struct {
		Ev string `json:"ev"`
		EpochMetrics
	}{"epoch", m})
}

// EmitEvent streams a named point event with arbitrary fields (e.g. a
// convergence-diagnostics verdict). Field keys are merged into the event object; "ev" and "name"
// are reserved. No-op without a sink, like every emitter.
func (r *Registry) EmitEvent(name string, fields map[string]any) {
	sink := r.getSink()
	if sink == nil {
		return
	}
	ev := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		ev[k] = v
	}
	ev["ev"] = "event"
	ev["name"] = name
	sink.emit(ev)
}

// EmitSnapshot streams the registry's full current state under a label
// (e.g. "final"), for offline analysis of totals.
func (r *Registry) EmitSnapshot(label string) {
	sink := r.getSink()
	if sink == nil {
		return
	}
	s := r.Snapshot()
	hists := make(map[string]map[string]any, len(s.Hists))
	for k, h := range s.Hists {
		hists[k] = map[string]any{
			"count": h.Count, "sum_s": h.Sum.Seconds(),
			"min_s": h.Min.Seconds(), "max_s": h.Max.Seconds(),
		}
	}
	sink.emit(map[string]any{
		"ev": "snapshot", "label": label,
		"counters": s.Counters, "gauges": s.Gauges, "hists": hists,
	})
}

// EpochMetrics is one epoch's cross-layer breakdown — where the epoch's
// time went, assembled from the well-known metric names. It is the row type
// of both exporters.
type EpochMetrics struct {
	// Epoch is 1-based.
	Epoch int `json:"epoch"`
	// Seconds is the epoch's duration (simulated when the registry clock is
	// the simulation clock, real otherwise).
	Seconds float64 `json:"epoch_s"`
	// IOSeconds is time spent in device reads and writes.
	IOSeconds float64 `json:"io_s"`
	// BytesRead counts bytes read from the device (cache hits included).
	BytesRead int64 `json:"bytes_read"`
	// ReadOps and Seeks count read accesses and those that paid a seek.
	ReadOps int64 `json:"read_ops"`
	Seeks   int64 `json:"seeks"`
	// SeekFraction is Seeks/ReadOps — ~0 sequential, ~1 random.
	SeekFraction float64 `json:"seek_fraction"`
	// CacheHitRate is the fraction of read bytes served by the OS cache.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// ShuffleSeconds is time spent filling shuffle buffers (block reads plus
	// tuple copies and in-buffer shuffling).
	ShuffleSeconds float64 `json:"shuffle_s"`
	// Refills counts shuffle-buffer refill operations.
	Refills int64 `json:"refills"`
	// GradSeconds is gradient-compute time.
	GradSeconds float64 `json:"grad_s"`
	// Tuples is the number of training examples consumed.
	Tuples int64 `json:"tuples"`
	// AvgLoss is the epoch's mean streaming loss.
	AvgLoss float64 `json:"avg_loss"`

	// RefillP50S, RefillP95S and RefillP99S are quantiles (seconds) of the
	// epoch's shuffle-buffer refill durations, estimated from the refill
	// histogram's per-epoch bucket delta. They are excluded from the
	// JSON encoding so existing JSONL traces stay byte-identical; the
	// epoch-table exporter and the live telemetry plane render them.
	RefillP50S float64 `json:"-"`
	RefillP95S float64 `json:"-"`
	RefillP99S float64 `json:"-"`
}

// EpochFromDelta assembles an epoch breakdown row from a snapshot delta
// covering exactly that epoch, plus the epoch's duration and loss (which
// the training loop knows directly).
func EpochFromDelta(epoch int, seconds, avgLoss float64, d Snapshot) EpochMetrics {
	m := EpochMetrics{
		Epoch:          epoch,
		Seconds:        seconds,
		IOSeconds:      d.CounterDur(IOTimeNanos).Seconds(),
		BytesRead:      d.Counters[IOReadBytes],
		ReadOps:        d.Counters[IOReadOps],
		Seeks:          d.Counters[IOSeeks],
		ShuffleSeconds: d.CounterDur(ShuffleFillNanos).Seconds(),
		Refills:        d.Counters[ShuffleRefills],
		GradSeconds:    d.CounterDur(SGDGradNanos).Seconds(),
		Tuples:         d.Counters[SGDTuples],
		AvgLoss:        avgLoss,
	}
	if m.ReadOps > 0 {
		m.SeekFraction = float64(m.Seeks) / float64(m.ReadOps)
	}
	if m.BytesRead > 0 {
		m.CacheHitRate = float64(d.Counters[IOCacheHitBytes]) / float64(m.BytesRead)
	}
	if h, ok := d.Hists[SpanRefill]; ok && h.Count > 0 {
		m.RefillP50S = h.Quantile(0.50).Seconds()
		m.RefillP95S = h.Quantile(0.95).Seconds()
		m.RefillP99S = h.Quantile(0.99).Seconds()
	}
	return m
}

// WriteEpochTable renders epoch breakdown rows as an aligned text table —
// the human-readable exporter, built on internal/stats. Alongside the
// per-epoch totals it prints the refill-duration histogram quantiles
// (p50/p95/p99), so tail latencies are visible next to the sums.
func WriteEpochTable(w io.Writer, title string, rows []EpochMetrics) error {
	t := stats.NewTable(title,
		"epoch", "time", "io", "read MB", "seek%", "cache%",
		"shuffle", "fill p50", "p95", "p99", "grad", "loss", "tuples")
	for _, m := range rows {
		t.AddRow(
			m.Epoch,
			fmtSeconds(m.Seconds),
			fmtSeconds(m.IOSeconds),
			fmt.Sprintf("%.2f", float64(m.BytesRead)/(1<<20)),
			fmt.Sprintf("%.1f", m.SeekFraction*100),
			fmt.Sprintf("%.1f", m.CacheHitRate*100),
			fmtSeconds(m.ShuffleSeconds),
			fmtSeconds(m.RefillP50S),
			fmtSeconds(m.RefillP95S),
			fmtSeconds(m.RefillP99S),
			fmtSeconds(m.GradSeconds),
			fmt.Sprintf("%.5f", m.AvgLoss),
			m.Tuples,
		)
	}
	return t.Write(w)
}

// WriteCounterTable renders every series of the registry's flattened
// snapshot, sorted by name — the "totals" companion to the per-epoch table.
func (r *Registry) WriteCounterTable(w io.Writer, title string) error {
	t := stats.NewTable(title, "metric", "value")
	for _, m := range r.Snapshot().Flatten() {
		t.AddRow(m.Name, m.Text())
	}
	return t.Write(w)
}

// fmtSeconds renders a duration in seconds compactly.
func fmtSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s >= 100:
		return fmt.Sprintf("%.0fs", s)
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 0.001:
		return fmt.Sprintf("%.2fms", s*1000)
	default:
		return fmt.Sprintf("%.0fµs", s*1e6)
	}
}
