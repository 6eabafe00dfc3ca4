package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable Clock for deterministic span tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func TestCountersGaugesHistograms(t *testing.T) {
	r := New()
	r.Add("a", 3)
	r.Inc("a")
	r.AddDuration("t_ns", 5*time.Millisecond)
	r.SetGauge("g", 1.5)
	r.Observe("h", 2*time.Millisecond)
	r.Observe("h", 4*time.Millisecond)

	if got := r.Counter("a"); got != 4 {
		t.Errorf("counter a = %d, want 4", got)
	}
	if got := r.Counter("t_ns"); got != int64(5*time.Millisecond) {
		t.Errorf("t_ns = %d", got)
	}
	if got := r.Gauge("g"); got != 1.5 {
		t.Errorf("gauge g = %v", got)
	}
	h := r.Snapshot().Hists["h"]
	if h.Count != 2 || h.Sum != 6*time.Millisecond {
		t.Errorf("hist h = %+v", h)
	}
	if h.Min != 2*time.Millisecond || h.Max != 4*time.Millisecond {
		t.Errorf("hist min/max = %v/%v", h.Min, h.Max)
	}
	var bucketSum int64
	for _, b := range h.Buckets {
		bucketSum += b
	}
	if bucketSum != 2 {
		t.Errorf("bucket sum = %d, want 2", bucketSum)
	}

	// Bucket i holds [2^(i−1), 2^i) ns, bucket 0 holds zero, and anything
	// past the last bucket's lower bound clamps into it.
	for _, c := range []struct {
		d      time.Duration
		bucket int
	}{{0, 0}, {1, 1}, {3, 2}, {1023, 10}, {1024, 11}, {1 << 39, histBuckets - 1}, {1 << 45, histBuckets - 1}} {
		name := "place " + c.d.String()
		r.Observe(name, c.d)
		placed := r.Snapshot().Hists[name]
		if placed.Buckets[c.bucket] != 1 {
			t.Errorf("%d ns landed in %v, want bucket %d", c.d, placed.Buckets, c.bucket)
		}
		if lo, hi := bucketBounds(c.bucket); c.bucket < histBuckets-1 && (c.d < lo || c.d >= hi) {
			t.Errorf("bucketBounds(%d) = [%d, %d) does not hold %d ns", c.bucket, lo, hi, c.d)
		}
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Add("a", 1)
	r.Inc("a")
	r.AddDuration("a", time.Second)
	r.SetGauge("g", 1)
	r.Observe("h", time.Second)
	r.EmitEpoch(EpochMetrics{})
	r.EmitSnapshot("x")
	r.WithClock(&fakeClock{})
	r.StreamTo(&bytes.Buffer{})
	if got := r.Now(); got != 0 {
		t.Errorf("nil Now = %v", got)
	}
	if got := r.Counter("a"); got != 0 {
		t.Errorf("nil counter = %d", got)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Errorf("nil snapshot non-empty")
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := New()
	r.Add("c", 10)
	r.Observe("h", time.Second)
	before := r.Snapshot()
	r.Add("c", 5)
	r.Observe("h", 3*time.Second)
	r.SetGauge("g", 7)
	d := r.Snapshot().DeltaFrom(before)
	if d.Counters["c"] != 5 {
		t.Errorf("delta c = %d, want 5", d.Counters["c"])
	}
	if h := d.Hists["h"]; h.Count != 1 || h.Sum != 3*time.Second {
		t.Errorf("delta hist = %+v", h)
	}
	if d.Gauges["g"] != 7 {
		t.Errorf("delta gauge = %v", d.Gauges["g"])
	}
	if d.CounterDur("c") != 5 {
		t.Errorf("CounterDur = %v", d.CounterDur("c"))
	}
}

// TestSnapshotFlatten pins the one flat form of a snapshot: counters,
// gauges (collected ones included) and each histogram's _count and
// quantile series, sorted by name, with cumulative series rendered as
// integers.
func TestSnapshotFlatten(t *testing.T) {
	r := New()
	r.Add("b.count", 1<<40)
	r.SetGauge("c.gauge", 0.25)
	r.Observe("a.op", 2*time.Millisecond)
	r.AddCollector(func(set func(string, float64)) { set("d.collected", 3) })
	var got []string
	for _, m := range r.Snapshot().Flatten() {
		got = append(got, m.Name+" "+m.Kind+" "+m.Text())
	}
	want := []string{
		"a.op_count histogram 1",
		"a.op_p50 histogram 0.002",
		"a.op_p95 histogram 0.002",
		"a.op_p99 histogram 0.002",
		"b.count counter 1099511627776",
		"c.gauge gauge 0.25",
		"d.collected gauge 3",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("Flatten:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestNegativeSpanClamped(t *testing.T) {
	// Pipelined components Set the simulated clock backwards; an interval
	// timed on the registry clock must clamp at zero rather than go
	// negative.
	clock := &fakeClock{now: 10 * time.Second}
	r := New().WithClock(clock)
	start := r.Now()
	clock.mu.Lock()
	clock.now = 5 * time.Second
	clock.mu.Unlock()
	r.Observe("warp", r.Now()-start)
	if h := r.Snapshot().Hists["warp"]; h.Count != 1 || h.Sum != 0 || h.Min != 0 || h.Max != 0 {
		t.Errorf("warped interval hist = %+v, want one zero observation", h)
	}
}

func TestEpochFromDelta(t *testing.T) {
	r := New()
	r.Add(IOReadOps, 10)
	r.Add(IOReadBytes, 1<<20)
	r.Add(IOSeeks, 4)
	r.Add(IOCacheHitBytes, 1<<19)
	r.AddDuration(IOTimeNanos, 2*time.Second)
	r.AddDuration(ShuffleFillNanos, time.Second)
	r.Add(ShuffleRefills, 3)
	r.AddDuration(SGDGradNanos, 500*time.Millisecond)
	r.Add(SGDTuples, 1000)

	m := EpochFromDelta(1, 3.5, 0.25, r.Snapshot().DeltaFrom(Snapshot{}))
	if m.Epoch != 1 || m.Seconds != 3.5 || m.AvgLoss != 0.25 {
		t.Errorf("header fields: %+v", m)
	}
	if m.IOSeconds != 2.0 || m.BytesRead != 1<<20 || m.Tuples != 1000 {
		t.Errorf("volume fields: %+v", m)
	}
	if m.SeekFraction != 0.4 {
		t.Errorf("seek fraction = %v, want 0.4", m.SeekFraction)
	}
	if m.CacheHitRate != 0.5 {
		t.Errorf("cache hit rate = %v, want 0.5", m.CacheHitRate)
	}
	if m.ShuffleSeconds != 1.0 || m.GradSeconds != 0.5 || m.Refills != 3 {
		t.Errorf("time fields: %+v", m)
	}
}

func TestWriteEpochTableAndJSONLParity(t *testing.T) {
	rows := []EpochMetrics{
		{Epoch: 1, Seconds: 2, IOSeconds: 1, BytesRead: 1 << 20,
			SeekFraction: 0.9, CacheHitRate: 0.5, ShuffleSeconds: 0.5,
			GradSeconds: 0.4, Tuples: 100, AvgLoss: 0.31415},
	}
	var tbl bytes.Buffer
	if err := WriteEpochTable(&tbl, "Per-epoch breakdown", rows); err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, col := range []string{"epoch", "io", "read MB", "seek%", "cache%", "shuffle", "grad", "loss", "tuples"} {
		if !strings.Contains(out, col) {
			t.Errorf("table missing column %q:\n%s", col, out)
		}
	}
	if !strings.Contains(out, "0.31415") {
		t.Errorf("table missing loss value:\n%s", out)
	}

	// The JSONL exporter round-trips the same row.
	var stream bytes.Buffer
	r := New().StreamTo(&stream)
	r.EmitEpoch(rows[0])
	var got struct {
		Ev string `json:"ev"`
		EpochMetrics
	}
	if err := json.Unmarshal(stream.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Ev != "epoch" || got.EpochMetrics != rows[0] {
		t.Errorf("JSONL epoch = %+v", got)
	}
}

func TestEmitSnapshot(t *testing.T) {
	var buf bytes.Buffer
	r := New().StreamTo(&buf)
	r.Add(IOReadBytes, 42)
	r.Observe("h", time.Second)
	r.EmitSnapshot("final")
	var got map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["ev"] != "snapshot" || got["label"] != "final" {
		t.Errorf("snapshot event = %v", got)
	}
}

func TestWriteCounterTable(t *testing.T) {
	r := New()
	r.Add("b.counter", 2)
	r.Add("a.counter", 1)
	r.SetGauge("z.gauge", 0.5)
	var buf bytes.Buffer
	if err := r.WriteCounterTable(&buf, "Totals"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a.counter") || !strings.Contains(out, "z.gauge") {
		t.Errorf("counter table:\n%s", out)
	}
	if strings.Index(out, "a.counter") > strings.Index(out, "b.counter") {
		t.Errorf("counters not sorted:\n%s", out)
	}
}

// TestConcurrentUse exercises every mutating path from many goroutines; its
// real assertion is `go test -race`.
func TestConcurrentUse(t *testing.T) {
	clock := &fakeClock{}
	var buf bytes.Buffer
	r := New().WithClock(clock).StreamTo(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.AddCollector(func(set func(string, float64)) { set("collected", 1) })
			for i := 0; i < 200; i++ {
				r.Inc("c")
				r.AddDuration(IOTimeNanos, time.Microsecond)
				r.SetGauge("g", float64(i))
				r.Observe("h", time.Duration(i))
				start := r.Now()
				clock.advance(time.Nanosecond)
				r.Observe("s", r.Now()-start)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c"); got != 1600 {
		t.Errorf("concurrent counter = %d, want 1600", got)
	}
	if h := r.Snapshot().Hists["s"]; h.Count != 1600 {
		t.Errorf("interval hist count = %d, want 1600", h.Count)
	}
}
