package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventLogRecordAndOrder(t *testing.T) {
	el := NewEventLog(8)
	for i := 0; i < 5; i++ {
		el.Emit(EvStatementStart, "t1", fmt.Sprintf("stmt %d", i))
	}
	evs := el.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Type != EvStatementStart || ev.Trace != "t1" {
			t.Fatalf("event %d = %+v, want type=%q trace=t1", i, ev, EvStatementStart)
		}
		if ev.TimeMs == 0 {
			t.Fatalf("event %d missing wall-clock stamp", i)
		}
	}
}

func TestEventLogRingOverflow(t *testing.T) {
	el := NewEventLog(4) // exact power of two: ring keeps the last 4
	for i := 0; i < 10; i++ {
		el.Emit(EvJobQueued, "", fmt.Sprintf("job %d", i))
	}
	evs := el.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d surviving events, want ring capacity 4", len(evs))
	}
	for i, ev := range evs {
		want := int64(7 + i) // seqs 7..10 survive
		if ev.Seq != want {
			t.Fatalf("survivor %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestEventLogRoundsToPowerOfTwo(t *testing.T) {
	el := NewEventLog(5)
	if len(el.ring) != 8 || len(el.spans) != 8 {
		t.Fatalf("rings sized %d/%d, want 8 (5 rounded up)", len(el.ring), len(el.spans))
	}
	if el = NewEventLog(0); len(el.ring) != DefaultEventLogSize {
		t.Fatalf("default ring size %d, want %d", len(el.ring), DefaultEventLogSize)
	}
}

func TestEventLogRecordStamps(t *testing.T) {
	el := NewEventLog(8)
	got := el.Record(Event{Type: EvCheckpoint, TimeMs: 42})
	if got.Seq != 1 || got.TimeMs != 42 {
		t.Fatalf("Record returned %+v, want seq=1 with caller's t_ms=42 kept", got)
	}
}

func TestEventLogSpans(t *testing.T) {
	el := NewEventLog(8)
	start := time.Now()
	el.RecordSpan("t1", EvSpanQueue, start, 5*time.Millisecond)
	sp := el.StartSpan("t1", EvSpanEpoch)
	if d := sp.End(); d < 0 {
		t.Fatalf("span duration %v negative", d)
	}
	spans := el.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != EvSpanQueue || spans[0].DurMs != 5 {
		t.Fatalf("span 0 = %+v, want queue/5ms", spans[0])
	}
	if spans[1].Name != EvSpanEpoch || spans[1].Trace != "t1" {
		t.Fatalf("span 1 = %+v, want epoch span on trace t1", spans[1])
	}
	if spans[0].Seq >= spans[1].Seq {
		t.Fatalf("spans out of order: %d then %d", spans[0].Seq, spans[1].Seq)
	}
}

func TestEventLogNilSafety(t *testing.T) {
	var el *EventLog
	el.Emit(EvPromote, "", "x")
	el.Record(Event{Type: EvCheckpoint})
	el.RecordSpan("", EvSpanInstall, time.Now(), time.Second)
	el.SetSlowThreshold(time.Second)
	if el.Slow(time.Hour) {
		t.Fatal("nil log reported a slow statement")
	}
	if got := el.Events(); got != nil {
		t.Fatalf("nil log Events() = %v, want nil", got)
	}
	if got := el.Spans(); got != nil {
		t.Fatalf("nil log Spans() = %v, want nil", got)
	}
	if el.StreamTo(io.Discard) != nil {
		t.Fatal("nil log StreamTo returned non-nil")
	}
	sp := el.StartSpan("t", "n")
	if d := sp.End(); d != 0 {
		t.Fatalf("nil-log span duration %v, want 0", d)
	}
	// The zero-value span must also be inert.
	var zero EventSpan
	if d := zero.End(); d != 0 {
		t.Fatalf("zero-value span duration %v, want 0", d)
	}
}

func TestEventLogSlowThreshold(t *testing.T) {
	el := NewEventLog(8)
	if el.Slow(time.Hour) {
		t.Fatal("disarmed log reported slow")
	}
	el.SetSlowThreshold(10 * time.Millisecond)
	if !el.Slow(10 * time.Millisecond) {
		t.Fatal("duration equal to threshold not reported slow")
	}
	if el.Slow(9 * time.Millisecond) {
		t.Fatal("duration under threshold reported slow")
	}
	el.SetSlowThreshold(0)
	if el.Slow(time.Hour) {
		t.Fatal("disarming did not stick")
	}
}

func TestEventLogSink(t *testing.T) {
	var buf bytes.Buffer
	el := NewEventLog(8).StreamTo(&buf)
	el.Emit(EvReplConnect, "t9", "remote=1.2.3.4")
	el.RecordSpan("t9", EvSpanStatement, time.Now(), 3*time.Millisecond)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink wrote %d lines, want 2: %q", len(lines), buf.String())
	}
	var ev struct {
		Ev    string `json:"ev"`
		Type  string `json:"type"`
		Trace string `json:"trace"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if ev.Ev != "event" || ev.Type != EvReplConnect || ev.Trace != "t9" {
		t.Fatalf("line 0 = %+v, want ev=event type=%s trace=t9", ev, EvReplConnect)
	}
	var sp struct {
		Ev    string  `json:"ev"`
		Name  string  `json:"name"`
		DurMs float64 `json:"dur_ms"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &sp); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if sp.Ev != "tracespan" || sp.Name != EvSpanStatement || sp.DurMs != 3 {
		t.Fatalf("line 1 = %+v, want ev=tracespan name=statement dur=3", sp)
	}
}

// TestEventLogConcurrent hammers the ring from many goroutines; run with
// -race this pins the lock-free append/snapshot protocol.
func TestEventLogConcurrent(t *testing.T) {
	el := NewEventLog(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				el.Emit(EvJobRunning, fmt.Sprintf("g%d", g), "")
				el.RecordSpan(fmt.Sprintf("g%d", g), EvSpanEpoch, time.Now(), time.Microsecond)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			el.Events()
			el.Spans()
		}
	}()
	wg.Wait()
	<-done
	evs := el.Events()
	if len(evs) != 64 {
		t.Fatalf("ring holds %d events, want full capacity 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// TestServeProbes exercises /healthz and /readyz: 200 "ok" while the
// probe passes, 503 with the reason once it fails, and always-200 when
// no probe is attached.
func TestServeProbes(t *testing.T) {
	var mu sync.Mutex
	var readyErr error
	srv, err := Serve(ServeConfig{
		Addr:     "127.0.0.1:0",
		Registry: New(),
		Health:   func() error { return nil },
		Ready: func() error {
			mu.Lock()
			defer mu.Unlock()
			return readyErr
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, strings.TrimSpace(string(body))
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok" {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK || body != "ok" {
		t.Fatalf("/readyz = %d %q, want 200 ok", code, body)
	}

	mu.Lock()
	readyErr = fmt.Errorf("replication lag 12 > max 4")
	mu.Unlock()
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "replication lag 12") {
		t.Fatalf("/readyz = %d %q, want 503 with lag reason", code, body)
	}
	// Health is independent of readiness.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d after readiness failure, want 200", code)
	}
}
