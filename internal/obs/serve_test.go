package obs

import (
	"bufio"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the exact text exposition output for a
// small registry: sorted families, the corgipile_ namespace, counters then
// gauges then histograms-as-summaries.
func TestWritePrometheusGolden(t *testing.T) {
	r := New()
	r.Add(IOReadOps, 7)
	r.Add(SGDTuples, 3)
	r.SetGauge(SGDLoss, 1.5)
	r.Observe(SpanEpoch, time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE corgipile_io_read_ops counter
corgipile_io_read_ops 7
# TYPE corgipile_sgd_tuples counter
corgipile_sgd_tuples 3
# TYPE corgipile_sgd_loss gauge
corgipile_sgd_loss 1.5
# TYPE corgipile_epoch_seconds summary
corgipile_epoch_seconds{quantile="0.5"} 0.001
corgipile_epoch_seconds{quantile="0.95"} 0.001
corgipile_epoch_seconds{quantile="0.99"} 0.001
corgipile_epoch_seconds_sum 0.001
corgipile_epoch_seconds_count 1
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var r *Registry
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry rendered %q", b.String())
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"io.read.ops":            "corgipile_io_read_ops",
		"runtime.gc.pause_p99_s": "corgipile_runtime_gc_pause_p99_s",
		"a-b c":                  "corgipile_a_b_c",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	var empty HistSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
	h := HistSnapshot{Count: 3, Min: 5, Max: 40}
	h.Buckets[3] = 2 // [4, 8)
	h.Buckets[6] = 1 // [32, 64)
	if q := h.Quantile(0); q != 5 {
		t.Fatalf("q=0 should clamp to Min: got %v", q)
	}
	if q := h.Quantile(1); q != 40 {
		t.Fatalf("q=1 should clamp to Max: got %v", q)
	}
}

// TestQuantileTwoModes checks the nearest-rank walk over a bimodal
// histogram: 90 fast observations around 1ns, 10 slow around 1.5µs.
func TestQuantileTwoModes(t *testing.T) {
	h := HistSnapshot{Count: 100, Min: 1, Max: 1500}
	h.Buckets[1] = 90  // [1, 2) ns
	h.Buckets[11] = 10 // [1024, 2048) ns
	p50 := h.Quantile(0.5)
	p95 := h.Quantile(0.95)
	p99 := h.Quantile(0.99)
	if p50 < 1 || p50 >= 2 {
		t.Fatalf("p50 = %v, want in the fast mode [1ns, 2ns)", p50)
	}
	if p95 < 1024 || p95 > 1500 {
		t.Fatalf("p95 = %v, want in the slow mode [1024ns, Max]", p95)
	}
	if p99 < p95 || p99 > 1500 {
		t.Fatalf("p99 = %v, want >= p95 and clamped to Max", p99)
	}
}

// TestQuantileMonotone feeds real observations and checks ordering and
// envelope clamping of the estimates.
func TestQuantileMonotone(t *testing.T) {
	r := New()
	for i := 1; i <= 1000; i++ {
		r.Observe("h", time.Duration(i)*time.Microsecond)
	}
	h := r.Snapshot().Hists["h"]
	last := time.Duration(0)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		est := h.Quantile(q)
		if est < last {
			t.Fatalf("quantile %g = %v < previous %v; not monotone", q, est, last)
		}
		if est < h.Min || est > h.Max {
			t.Fatalf("quantile %g = %v outside [%v, %v]", q, est, h.Min, h.Max)
		}
		last = est
	}
	// p50 of a uniform 1..1000µs spread sits within a power-of-two bucket
	// of the true median.
	if p50 := h.Quantile(0.5); p50 < 250*time.Microsecond || p50 > time.Millisecond {
		t.Fatalf("p50 = %v, want within a bucket of 500µs", p50)
	}
}

func TestFillFromRegistry(t *testing.T) {
	r := New()
	r.SetGauge(ShuffleBufferTuples, 128)
	r.SetGauge(ShuffleBufferOccupancy, 0.5)
	r.Add(StorageRetries, 3)
	r.Add(IOFaultOps, 1)
	r.Add(IOReadOps, 99) // not a fault counter; must not be folded in

	var st RunStatus
	st.FillFrom(r.Snapshot())
	if st.BufferTuples != 128 || st.BufferOccupancy != 0.5 {
		t.Fatalf("buffer gauges not folded: %+v", st)
	}
	if len(st.Faults) != 2 || st.Faults[StorageRetries] != 3 || st.Faults[IOFaultOps] != 1 {
		t.Fatalf("fault counters wrong: %v", st.Faults)
	}

	var clean RunStatus
	clean.FillFrom(New().Snapshot())
	if clean.Faults != nil {
		t.Fatalf("zero counters must not allocate a fault map: %v", clean.Faults)
	}
	clean.FillFrom(Snapshot{}) // an unattached registry's zero snapshot must not panic
}

func TestRunFeedPubSub(t *testing.T) {
	f := NewRunFeed()
	ch, cancel := f.Subscribe()
	f.Publish(RunStatus{Epoch: 1, Loss: 0.5})
	select {
	case msg := <-ch:
		if !strings.Contains(string(msg), `"epoch":1`) {
			t.Fatalf("unexpected payload %s", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("no update delivered")
	}
	st, seq := f.Status()
	if st.Epoch != 1 || seq != 1 {
		t.Fatalf("status = %+v seq=%d", st, seq)
	}
	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		t.Fatal("channel still open after cancel")
	}

	// Slow subscribers drop updates instead of blocking Publish.
	slow, slowCancel := f.Subscribe()
	defer slowCancel()
	for i := 0; i < 100; i++ {
		f.Publish(RunStatus{Epoch: i})
	}
	if n := len(slow); n > cap(slow) {
		t.Fatalf("subscriber buffered %d > cap %d", n, cap(slow))
	}

	f.Close()
	if _, ok := <-slow; ok {
		// Drain: channel holds buffered updates, then closes.
		for range slow {
		}
	}
	// A late subscriber still gets the current status, then a closed channel.
	late, _ := f.Subscribe()
	if msg := <-late; !strings.Contains(string(msg), `"epoch":99`) {
		t.Fatalf("late subscriber's first message %s, want the current status", msg)
	}
	if _, ok := <-late; ok {
		t.Fatal("Subscribe after Close must return a closed channel")
	}

	// Nil feed: everything is a safe no-op.
	var nilFeed *RunFeed
	nilFeed.Publish(RunStatus{})
	nilFeed.Close()
	nch, ncancel := nilFeed.Subscribe()
	ncancel()
	if _, ok := <-nch; ok {
		t.Fatal("nil feed Subscribe must return a closed channel")
	}
}

// startServer boots a telemetry server on a free port and registers
// cleanup.
func startServer(t *testing.T, reg *Registry, feed *RunFeed) *Server {
	t.Helper()
	srv, err := Serve(ServeConfig{Addr: "127.0.0.1:0", Registry: reg, Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServeEndpoints(t *testing.T) {
	reg := New()
	reg.Add(IOReadOps, 5)
	feed := NewRunFeed()
	srv := startServer(t, reg, feed)

	code, body, hdr := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(body, "corgipile_io_read_ops 5") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	feed.Publish(RunStatus{Run: "test", Epoch: 2, Loss: 0.25})
	code, body, hdr = get(t, srv.URL()+"/run")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("/run status %d type %q", code, hdr.Get("Content-Type"))
	}
	for _, want := range []string{`"run": "test"`, `"epoch": 2`, `"updates": 1`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/run missing %s:\n%s", want, body)
		}
	}

	code, body, _ = get(t, srv.URL()+"/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index status %d body %q", code, body)
	}
	if code, _, _ = get(t, srv.URL()+"/nosuch"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", code)
	}
	// pprof index is mounted.
	if code, _, _ = get(t, srv.URL()+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
}

func TestServeWithoutFeed(t *testing.T) {
	srv := startServer(t, New(), nil)
	if code, _, _ := get(t, srv.URL()+"/run"); code != http.StatusNotFound {
		t.Fatalf("/run without feed: status %d, want 404", code)
	}
}

// TestSSEShutdownNoLeak opens an SSE stream, receives one event, shuts the
// server down mid-stream, and verifies the stream terminates and no
// goroutines are left behind.
func TestSSEShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	feed := NewRunFeed()
	srv, err := Serve(ServeConfig{Addr: "127.0.0.1:0", Registry: New(), Feed: feed})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL() + "/run?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	feed.Publish(RunStatus{Epoch: 1, Loss: 0.9})
	rd := bufio.NewReader(resp.Body)
	line, err := rd.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "data: ") {
		t.Fatalf("first SSE line %q, err %v", line, err)
	}
	if !strings.Contains(line, `"epoch":1`) {
		t.Fatalf("SSE payload %q", line)
	}

	// Shut down while the stream is open: the handler must return (the
	// feed closes its subscriber channel) and the body must hit EOF.
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, rd)
		done <- err
	}()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream did not terminate after server Close")
	}
	resp.Body.Close()
	srv.Close() // double Close is safe

	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "goroutines back to the pre-server count", func() bool { return runtime.NumGoroutine() <= before })
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestConcurrentScrapeDuringRun hammers the registry and feed from writer
// goroutines while scraping /metrics and WritePrometheus concurrently —
// meaningful under -race.
func TestConcurrentScrapeDuringRun(t *testing.T) {
	reg := New()
	feed := NewRunFeed()
	srv := startServer(t, reg, feed)

	// The writers yield after every write and stop when the scrapers are
	// done or after a fixed budget, whichever comes first: unbounded and
	// never yielding, they starve the scrapers when GOMAXPROCS is 1.
	const writesPerWriter = 20000
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < writesPerWriter; i++ {
				select {
				case <-stop:
					return
				default:
				}
				reg.Inc(SGDTuples)
				reg.Observe(SpanEpoch, time.Duration(i%1000)*time.Microsecond)
				reg.SetGauge(ShuffleBufferOccupancy, float64(i%100)/100)
				feed.Publish(RunStatus{Epoch: i, Loss: 1 / float64(i+1)})
				runtime.Gosched()
			}
		}(w)
	}

	var scrapers sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 25; i++ {
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				if code, body, _ := get(t, srv.URL()+"/metrics"); code != http.StatusOK || body == "" {
					t.Errorf("scrape %d: status %d", i, code)
					return
				}
				if code, _, _ := get(t, srv.URL()+"/run"); code != http.StatusOK {
					t.Errorf("run %d: bad status", i)
					return
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	writers.Wait()
}

// TestRuntimeGaugesReadOnServe: serving a registry adds the runtime
// collector, so every read of it carries the process gauges, and a
// registry that was never served carries none.
func TestRuntimeGaugesReadOnServe(t *testing.T) {
	if g := New().Snapshot().Gauges; len(g) != 0 {
		t.Fatalf("unserved registry reports gauges %v", g)
	}
	reg := New()
	srv, err := Serve(ServeConfig{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	g := reg.Snapshot().Gauges
	if g[RuntimeGoroutines] < 1 {
		t.Fatalf("goroutine gauge %v, want >= 1", g[RuntimeGoroutines])
	}
	if g[RuntimeTotalBytes] <= 0 {
		t.Fatalf("total memory gauge %v, want > 0", g[RuntimeTotalBytes])
	}
}
