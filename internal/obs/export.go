package obs

import (
	"fmt"
	"io"

	"corgipile/internal/stats"
)

// EpochMetrics is one epoch's cross-layer breakdown — where the epoch's
// time went, assembled from the well-known metric names. core.Loop.Step
// builds it once per epoch into Result.Breakdown; WriteEpochTable and a
// run dir's epochs.jsonl render it.
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
	// JSON encoding so epochs.jsonl rows stay byte-identical; the epoch
	// table and the live telemetry plane render them.
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

// WriteEpochTable renders epoch breakdown rows as an aligned text table,
// built on internal/stats. Alongside the
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
