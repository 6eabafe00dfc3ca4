package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// histClock feeds sampleAt a deterministic timeline.
type histClock struct {
	now  time.Time
	step time.Duration
}

func newHistClock(step time.Duration) *histClock {
	return &histClock{now: time.UnixMilli(1_700_000_000_000).UTC(), step: step}
}

// tick advances the clock one sampling interval and returns the new time.
func (c *histClock) tick() time.Time {
	c.now = c.now.Add(c.step)
	return c.now
}

// Names returns the sampled series names, sorted.
func (h *History) Names() []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := make(map[string]bool)
	var names []string
	for _, t := range h.tiers {
		for n := range t.series {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

func gaugeSnap(name string, v float64) Snapshot {
	return Snapshot{Gauges: map[string]float64{name: v}}
}

// pointsAt filters Query output to one resolution.
func pointsAt(h *History, name, resolution string) []HistoryPoint {
	var out []HistoryPoint
	for _, p := range h.Query(name, 0) {
		if p.Resolution == resolution {
			out = append(out, p)
		}
	}
	return out
}

func TestHistoryTierPromotion(t *testing.T) {
	h := NewHistory(HistoryConfig{Interval: time.Second, Slots: 64})
	clk := newHistClock(time.Second)
	// 25 samples with value = sample index: the 10x tier must hold the
	// means of samples 1..10 and 11..20 (5.5 and 15.5), each stamped with
	// its last contributing sample's time.
	for i := 1; i <= 25; i++ {
		h.sampleAt(clk.tick(), gaugeSnap("g", float64(i)))
	}
	raw := pointsAt(h, "g", "1s")
	if len(raw) != 25 {
		t.Fatalf("raw tier has %d points, want 25", len(raw))
	}
	coarse := pointsAt(h, "g", "10s")
	if len(coarse) != 2 {
		t.Fatalf("10s tier has %d points, want 2 (5 samples still accumulating)", len(coarse))
	}
	if coarse[0].Value != 5.5 || coarse[1].Value != 15.5 {
		t.Fatalf("10s tier means = %g, %g, want 5.5, 15.5", coarse[0].Value, coarse[1].Value)
	}
	if coarse[0].TimeMs != raw[9].TimeMs || coarse[1].TimeMs != raw[19].TimeMs {
		t.Fatalf("10s tier stamps %d/%d, want the 10th/20th sample times %d/%d",
			coarse[0].TimeMs, coarse[1].TimeMs, raw[9].TimeMs, raw[19].TimeMs)
	}
}

func TestHistoryDefaultTiers(t *testing.T) {
	h := NewHistory(HistoryConfig{})
	got := h.Resolutions()
	want := []string{"1s", "10s", "1m"}
	if len(got) != len(want) {
		t.Fatalf("resolutions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resolutions = %v, want %v", got, want)
		}
	}
	if h.Interval() != time.Second {
		t.Fatalf("default interval = %s, want 1s", h.Interval())
	}
}

func TestHistoryRingWraparound(t *testing.T) {
	const slots = 8
	h := NewHistory(HistoryConfig{Interval: time.Second, Slots: slots})
	clk := newHistClock(time.Second)
	for i := 1; i <= 20; i++ {
		h.sampleAt(clk.tick(), gaugeSnap("g", float64(i)))
	}
	pts := pointsAt(h, "g", "1s")
	if len(pts) != slots {
		t.Fatalf("wrapped ring has %d points, want %d", len(pts), slots)
	}
	// Oldest-first iteration over the last 8 of 20 samples: 13..20.
	for i, p := range pts {
		if want := float64(13 + i); p.Value != want {
			t.Fatalf("point %d = %g, want %g (oldest-first after wrap)", i, p.Value, want)
		}
		if i > 0 && pts[i-1].TimeMs >= p.TimeMs {
			t.Fatalf("points not time-ordered after wrap: %d then %d", pts[i-1].TimeMs, p.TimeMs)
		}
	}
}

func TestHistorySinceWindow(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		h := NewHistory(HistoryConfig{Interval: time.Second, Slots: 8})
		if pts := h.Query("g", 0); len(pts) != 0 {
			t.Fatalf("empty store returned %d points", len(pts))
		}
		if pts := h.Query("", time.Now().UnixMilli()); len(pts) != 0 {
			t.Fatalf("empty store with since returned %d points", len(pts))
		}
	})
	t.Run("partial", func(t *testing.T) {
		h := NewHistory(HistoryConfig{Interval: time.Second, Slots: 16})
		clk := newHistClock(time.Second)
		var cut int64
		for i := 1; i <= 10; i++ {
			now := clk.tick()
			if i == 7 {
				cut = now.UnixMilli()
			}
			h.sampleAt(now, gaugeSnap("g", float64(i)))
		}
		var pts []HistoryPoint
		for _, p := range h.Query("g", cut) {
			if p.Resolution == "1s" {
				pts = append(pts, p)
			}
		}
		if len(pts) != 4 { // samples 7..10, boundary inclusive
			t.Fatalf("since-window returned %d points, want 4", len(pts))
		}
		if pts[0].Value != 7 {
			t.Fatalf("window starts at %g, want 7 (since is inclusive)", pts[0].Value)
		}
	})
	t.Run("wrapped", func(t *testing.T) {
		h := NewHistory(HistoryConfig{Interval: time.Second, Slots: 4})
		clk := newHistClock(time.Second)
		var cut int64
		for i := 1; i <= 12; i++ {
			now := clk.tick()
			if i == 11 {
				cut = now.UnixMilli()
			}
			h.sampleAt(now, gaugeSnap("g", float64(i)))
		}
		pts := h.Query("g", cut)
		if len(pts) != 2 || pts[0].Value != 11 || pts[1].Value != 12 {
			t.Fatalf("wrapped since-window = %+v, want values 11, 12", pts)
		}
	})
}

func TestHistoryHistogramSeries(t *testing.T) {
	reg := New()
	for i := 1; i <= 100; i++ {
		reg.Observe("op", time.Duration(i)*time.Millisecond)
	}
	h := NewHistory(HistoryConfig{Interval: time.Second, Slots: 8})
	h.sampleAt(newHistClock(time.Second).tick(), reg.Snapshot())
	names := h.Names()
	for _, want := range []string{"op_count", "op_p50", "op_p95", "op_p99"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("histogram series %q missing from %v", want, names)
		}
	}
	cnt := pointsAt(h, "op_count", "1s")
	if len(cnt) != 1 || cnt[0].Value != 100 {
		t.Fatalf("op_count = %+v, want one point of 100", cnt)
	}
	p95 := pointsAt(h, "op_p95", "1s")
	if len(p95) != 1 || p95[0].Value <= 0 || p95[0].Value > 1 {
		t.Fatalf("op_p95 = %+v, want one point in (0,1] seconds", p95)
	}
}

func TestParseAlertRule(t *testing.T) {
	r, err := ParseAlertRule("serve.predict_p95>0.5 for 30s")
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric != "serve.predict_p95" || r.Op != '>' || r.Threshold != 0.5 || r.For != 30*time.Second {
		t.Fatalf("parsed %+v", r)
	}
	r, err = ParseAlertRule("repl.lag_lsn < 3")
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric != "repl.lag_lsn" || r.Op != '<' || r.Threshold != 3 || r.For != 0 {
		t.Fatalf("parsed %+v", r)
	}
	for _, bad := range []string{"", "nometric", ">5", "m>", "m>x", "m>1 for eternity"} {
		if _, err := ParseAlertRule(bad); err == nil {
			t.Fatalf("ParseAlertRule(%q) accepted", bad)
		}
	}
}

func TestHistoryAlertFireResolve(t *testing.T) {
	el := NewEventLog(64)
	h := NewHistory(HistoryConfig{Interval: time.Second, Slots: 16}).WithEvents(el)
	h.AddRule(AlertRule{Metric: "g", Op: '>', Threshold: 10, For: 2 * time.Second})
	clk := newHistClock(time.Second)

	step := func(v float64) AlertStatus {
		h.sampleAt(clk.tick(), gaugeSnap("g", v))
		return h.Alerts()[0]
	}
	if st := step(5); st.State != AlertOK {
		t.Fatalf("below threshold: state %s, want ok", st.State)
	}
	if st := step(20); st.State != AlertPending {
		t.Fatalf("first breach: state %s, want pending (for=2s)", st.State)
	}
	if st := step(20); st.State != AlertPending {
		t.Fatalf("1s held: state %s, want pending", st.State)
	}
	st := step(20) // held 2s — fires
	if st.State != AlertFiring || st.Fired != 1 {
		t.Fatalf("2s held: state %s fired %d, want firing/1", st.State, st.Fired)
	}
	if st := step(5); st.State != AlertOK {
		t.Fatalf("back below: state %s, want ok (resolved)", st.State)
	}
	var firing, resolved int
	for _, ev := range el.Events() {
		switch ev.Type {
		case EvAlertFiring:
			firing++
			if !strings.Contains(ev.Detail, "metric=g") {
				t.Fatalf("firing detail %q lacks metric", ev.Detail)
			}
		case EvAlertResolved:
			resolved++
		}
	}
	if firing != 1 || resolved != 1 {
		t.Fatalf("event log has %d firing / %d resolved, want 1/1", firing, resolved)
	}
}

func TestHistoryAlertPendingResetsBelowThreshold(t *testing.T) {
	h := NewHistory(HistoryConfig{Interval: time.Second, Slots: 16})
	h.AddRule(AlertRule{Metric: "g", Op: '>', Threshold: 10, For: 3 * time.Second})
	clk := newHistClock(time.Second)
	h.sampleAt(clk.tick(), gaugeSnap("g", 20)) // pending
	h.sampleAt(clk.tick(), gaugeSnap("g", 5))  // drops out before firing
	if st := h.Alerts()[0]; st.State != AlertOK || st.Fired != 0 {
		t.Fatalf("state %s fired %d, want ok/0 (pending must reset)", st.State, st.Fired)
	}
}

func TestHistoryCounterAlertUsesRate(t *testing.T) {
	h := NewHistory(HistoryConfig{Interval: time.Second, Slots: 16})
	// A cumulative counter alert evaluates the per-second delta, so it can
	// fire while traffic flows and resolve when it stops — a threshold on
	// the raw total would latch forever.
	h.AddRule(AlertRule{Metric: "c", Op: '>', Threshold: 50, For: 0})
	clk := newHistClock(time.Second)
	counterSnap := func(total int64) Snapshot {
		return Snapshot{Counters: map[string]int64{"c": total}}
	}
	h.sampleAt(clk.tick(), counterSnap(1000))
	if st := h.Alerts()[0]; st.State != AlertOK {
		t.Fatalf("first sample: state %s, want ok (no rate yet)", st.State)
	}
	h.sampleAt(clk.tick(), counterSnap(1200)) // +200/s
	if st := h.Alerts()[0]; st.State != AlertFiring || st.Value != 200 {
		t.Fatalf("rate 200/s: state %s value %g, want firing/200", st.State, st.Value)
	}
	h.sampleAt(clk.tick(), counterSnap(1210)) // +10/s
	if st := h.Alerts()[0]; st.State != AlertOK {
		t.Fatalf("rate 10/s: state %s, want ok (resolved on rate drop)", st.State)
	}
}

func TestHistoryNilSafe(t *testing.T) {
	var h *History
	h.Sample(New())
	h.sampleAt(time.Now(), Snapshot{})
	h.AddRule(AlertRule{Metric: "x", Op: '>'})
	h.WithEvents(NewEventLog(1))
	h.Start(New())
	h.Stop()
	if h.Query("", 0) != nil || h.Names() != nil || h.Alerts() != nil || h.Resolutions() != nil {
		t.Fatal("nil History must answer empty")
	}
	if h.Interval() != 0 {
		t.Fatal("nil History interval must be 0")
	}
}

func TestHistorySamplerStartStopNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := New()
	reg.SetGauge("g", 1) // an empty registry samples no series at all
	for i := 0; i < 5; i++ {
		h := NewHistory(HistoryConfig{Interval: 10 * time.Millisecond, Slots: 8})
		h.Start(reg)
		h.Start(reg) // idempotent: no second goroutine
		// Start samples once itself; a second point is the ticker's.
		waitFor(t, "a ticker sample", func() bool { return len(pointsAt(h, "g", "10ms")) >= 2 })
		h.Stop()
		h.Stop() // idempotent: no panic, no hang
	}
	// The goroutine count must return to baseline once samplers stop.
	waitFor(t, "goroutines back to the pre-sampler count", func() bool { return runtime.NumGoroutine() <= before })
}

// TestHistorySampleReadsCollectors: a sample reads the registry's
// collectors at the instant it is taken, once per sample, and the registry
// itself keeps nothing of what they reported.
func TestHistorySampleReadsCollectors(t *testing.T) {
	reg := New()
	h := NewHistory(HistoryConfig{Interval: time.Hour})
	calls := 0
	reg.AddCollector(func(set func(string, float64)) { calls++; set("collected", float64(calls)) })
	h.Start(reg) // samples once synchronously
	defer h.Stop()
	if calls != 1 {
		t.Fatalf("collector ran %d times on Start, want 1", calls)
	}
	if pts := h.Query("collected", 0); len(pts) != 1 || pts[0].Value != 1 {
		t.Fatalf("collected gauge not visible in the same sample: %+v", pts)
	}
	if v := reg.Gauge("collected"); v != 0 {
		t.Fatalf("registry stored collected gauge %v, want nothing", v)
	}
}

func TestHistoryHTTPEndpoints(t *testing.T) {
	reg := New()
	reg.SetGauge("g", 42)
	h := NewHistory(HistoryConfig{Interval: time.Second, Slots: 8})
	h.AddRule(AlertRule{Metric: "g", Op: '>', Threshold: 1})
	h.sampleAt(newHistClock(time.Second).tick(), reg.Snapshot())

	srv, err := Serve(ServeConfig{Addr: "127.0.0.1:0", Registry: reg, History: h})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var hist struct {
		IntervalMs  int64          `json:"interval_ms"`
		Resolutions []string       `json:"resolutions"`
		Points      []HistoryPoint `json:"points"`
	}
	getJSON(t, srv.URL()+"/metrics/history?name=g", &hist)
	if hist.IntervalMs != 1000 || len(hist.Points) != 1 || hist.Points[0].Value != 42 {
		t.Fatalf("history reply %+v", hist)
	}
	// A since far in the future filters everything; a bad since is a 400.
	getJSON(t, fmt.Sprintf("%s/metrics/history?name=g&since=%d", srv.URL(), time.Now().Add(time.Hour).UnixMilli()), &hist)
	if len(hist.Points) != 0 {
		t.Fatalf("future since returned %d points", len(hist.Points))
	}
	if code := getStatus(t, srv.URL()+"/metrics/history?since=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad since: status %d, want 400", code)
	}

	var alerts struct {
		Alerts []AlertStatus `json:"alerts"`
	}
	getJSON(t, srv.URL()+"/alertz", &alerts)
	if len(alerts.Alerts) != 1 || alerts.Alerts[0].State != AlertFiring {
		t.Fatalf("alertz reply %+v", alerts)
	}

	// No history attached: both endpoints are 404, not empty-success.
	bare, err := Serve(ServeConfig{Addr: "127.0.0.1:0", Registry: New()})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if code := getStatus(t, bare.URL()+"/metrics/history"); code != http.StatusNotFound {
		t.Fatalf("no history: /metrics/history status %d, want 404", code)
	}
	if code := getStatus(t, bare.URL()+"/alertz"); code != http.StatusNotFound {
		t.Fatalf("no history: /alertz status %d, want 404", code)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
