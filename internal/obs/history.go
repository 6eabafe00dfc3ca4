package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file implements the metrics history plane: a bounded in-memory
// time-series store (History) that samples a Registry on an interval into
// fixed-size ring series with automatic downsampling tiers, plus threshold
// alert rules evaluated against every sample.
//
// The paper's whole argument is a trajectory claim — convergence versus
// I/O cost over epochs — but /metrics and corgi_metrics are point-in-time.
// History closes that gap: every registered counter and gauge, and every
// histogram's p50/p95/p99, becomes a queryable series at multiple
// resolutions (raw tier, plus coarser tiers holding means of consecutive
// raw samples), so an operator — or the future cost-based planner — can
// ask "what did predict p95 look like during that TRAIN" after the fact.
//
// Like EventLog, a History is optional everywhere it is threaded: every
// method is a no-op on a nil receiver, and sampling only ever *reads* the
// registry (Snapshot, which runs its collectors, so a sampled gauge is as
// fresh as the sample), so a process that never attaches one produces
// byte-identical passive traces (TestTracePurity pins this).

// Alert event types recorded into the EventLog when rules transition.
const (
	EvAlertFiring   = "alert.firing"
	EvAlertResolved = "alert.resolved"
)

// Alert rule states.
const (
	AlertOK      = "ok"      // condition false
	AlertPending = "pending" // condition true, for-duration not yet met
	AlertFiring  = "firing"  // condition held for the rule's duration
)

// Default History configuration values.
const (
	DefaultHistoryInterval = time.Second
	DefaultHistorySlots    = 256
)

// historyTiers are the downsampling factors relative to the interval: raw
// samples, 10-sample means, 60-sample means (1s → 10s → 1m at the default
// interval).
var historyTiers = []int{1, 10, 60}

// HistoryConfig configures a History store.
type HistoryConfig struct {
	// Interval is the sampling period (default 1s).
	Interval time.Duration
	// Slots is the ring capacity of every series at every tier
	// (default 256). Memory is bounded by metrics × tiers × Slots points.
	Slots int
}

// HistoryPoint is one sampled value of one series at one resolution — the
// row shape of corgi_metrics_history and /metrics/history.
type HistoryPoint struct {
	Name       string  `json:"name"`
	TimeMs     int64   `json:"ts"`
	Value      float64 `json:"value"`
	Resolution string  `json:"resolution"`
}

// point is the stored form (the name and resolution live on the series).
type point struct {
	timeMs int64
	value  float64
}

// series is one metric's fixed-size ring at one tier.
type series struct {
	pts  []point
	next int // next write slot
	n    int // stored points (≤ len(pts))
}

func (s *series) push(p point) {
	s.pts[s.next] = p
	s.next = (s.next + 1) % len(s.pts)
	if s.n < len(s.pts) {
		s.n++
	}
}

// each iterates the stored points oldest-first.
func (s *series) each(fn func(point)) {
	start := s.next - s.n
	for i := 0; i < s.n; i++ {
		fn(s.pts[(start+i+len(s.pts))%len(s.pts)])
	}
}

// accum is a tier's running mean of raw samples not yet flushed.
type accum struct {
	sum   float64
	count int
}

// historyTier is one downsampling level: factor raw samples per stored
// point, a ring per metric, and the per-metric accumulators.
type historyTier struct {
	factor int
	label  string
	series map[string]*series
	acc    map[string]*accum
}

// AlertRule is one threshold rule: fire when Metric Op Threshold has held
// for For. Gauges and histogram quantiles compare the sampled value;
// counters (and histogram _count series) compare the per-second rate
// between consecutive samples, since a cumulative total crosses any
// threshold exactly once and could never resolve.
type AlertRule struct {
	// Name labels the rule in events, /alertz and corgi_alerts (defaults
	// to the parsed spec string).
	Name string
	// Metric names the sampled series: a counter or gauge name verbatim,
	// or a histogram quantile series like "serve.predict_p95".
	Metric string
	// Op is '>' or '<'.
	Op byte
	// Threshold is the boundary value (rates for counters, seconds for
	// histogram quantiles, raw value for gauges).
	Threshold float64
	// For is how long the condition must hold before the rule fires
	// (0 = fire on the first true sample).
	For time.Duration
}

// ParseAlertRule parses the -alert flag syntax: "metric>value" or
// "metric<value", optionally followed by " for 30s".
func ParseAlertRule(spec string) (AlertRule, error) {
	r := AlertRule{Name: strings.TrimSpace(spec)}
	body := r.Name
	if i := strings.LastIndex(body, " for "); i >= 0 {
		d, err := time.ParseDuration(strings.TrimSpace(body[i+5:]))
		if err != nil {
			return r, fmt.Errorf("obs: alert %q: bad for-duration: %v", spec, err)
		}
		r.For = d
		body = strings.TrimSpace(body[:i])
	}
	op := strings.IndexAny(body, "><")
	if op < 0 {
		return r, fmt.Errorf("obs: alert %q needs 'metric>value' or 'metric<value'", spec)
	}
	r.Metric = strings.TrimSpace(body[:op])
	r.Op = body[op]
	thr, err := strconv.ParseFloat(strings.TrimSpace(body[op+1:]), 64)
	if err != nil {
		return r, fmt.Errorf("obs: alert %q: bad threshold: %v", spec, err)
	}
	r.Threshold = thr
	if r.Metric == "" {
		return r, fmt.Errorf("obs: alert %q names no metric", spec)
	}
	return r, nil
}

// alertState is a rule plus its evaluation state.
type alertState struct {
	rule    AlertRule
	state   string
	since   time.Time // entered the current non-ok state
	value   float64   // last evaluated value
	fired   int64
	firedAt time.Time
}

// AlertStatus is one rule's externally visible state — the row shape of
// corgi_alerts and /alertz.
type AlertStatus struct {
	Name       string  `json:"name"`
	Metric     string  `json:"metric"`
	Op         string  `json:"op"`
	Threshold  float64 `json:"threshold"`
	ForSeconds float64 `json:"for_seconds"`
	State      string  `json:"state"`
	SinceMs    int64   `json:"since_ms,omitempty"`
	Value      float64 `json:"value"`
	Fired      int64   `json:"fired"`
}

// History is the bounded time-series store. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type History struct {
	mu       sync.Mutex
	interval time.Duration
	slots    int
	tiers    []*historyTier
	alerts   []*alertState
	events   *EventLog
	// prevCumulative holds the last sample of every cumulative series and
	// backs counter-rate alerts (and nothing else); nil until the first
	// sample.
	prevCumulative map[string]float64

	samplerMu sync.Mutex
	stop      chan struct{}
	done      chan struct{}
}

// NewHistory builds a store from cfg (zero fields take the defaults).
func NewHistory(cfg HistoryConfig) *History {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultHistoryInterval
	}
	if cfg.Slots <= 0 {
		cfg.Slots = DefaultHistorySlots
	}
	h := &History{interval: cfg.Interval, slots: cfg.Slots}
	for _, f := range historyTiers {
		h.tiers = append(h.tiers, &historyTier{
			factor: f,
			label:  resolutionLabel(time.Duration(f) * cfg.Interval),
			series: make(map[string]*series),
			acc:    make(map[string]*accum),
		})
	}
	return h
}

// resolutionLabel renders a tier's period compactly ("1s", "10s", "1m").
func resolutionLabel(d time.Duration) string {
	s := d.String()
	if strings.HasSuffix(s, "m0s") {
		s = strings.TrimSuffix(s, "0s")
	}
	if strings.HasSuffix(s, "h0m") {
		s = strings.TrimSuffix(s, "0m")
	}
	return s
}

// Interval returns the sampling period (0 on a nil store).
func (h *History) Interval() time.Duration {
	if h == nil {
		return 0
	}
	return h.interval
}

// WithEvents attaches the event log alert transitions are recorded into.
func (h *History) WithEvents(el *EventLog) *History {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	h.events = el
	h.mu.Unlock()
	return h
}

// AddRule registers a threshold alert rule.
func (h *History) AddRule(r AlertRule) {
	if h == nil {
		return
	}
	if r.Name == "" {
		forPart := ""
		if r.For > 0 {
			forPart = " for " + r.For.String()
		}
		r.Name = fmt.Sprintf("%s%c%g%s", r.Metric, r.Op, r.Threshold, forPart)
	}
	h.mu.Lock()
	h.alerts = append(h.alerts, &alertState{rule: r, state: AlertOK})
	h.mu.Unlock()
}

// Sample takes one sample of reg now: every series of its flattened
// snapshot (Snapshot.Flatten). Alert rules evaluate against the same
// sample. Reading the registry is the only interaction — sampling never
// mutates it.
func (h *History) Sample(reg *Registry) {
	if h == nil {
		return
	}
	h.sampleAt(time.Now(), reg.Snapshot())
}

// sampleAt is Sample with an explicit clock, the deterministic seam the
// downsampling tests drive.
func (h *History) sampleAt(now time.Time, snap Snapshot) {
	if h == nil {
		return
	}
	ms := now.UnixMilli()
	flat := snap.Flatten()
	h.mu.Lock()
	for _, m := range flat {
		for _, t := range h.tiers {
			t.record(m.Name, ms, m.Value, h.slots)
		}
	}
	h.evalAlertsLocked(now, flat)
	prev := make(map[string]float64, len(flat))
	for _, m := range flat {
		if m.Cumulative() {
			prev[m.Name] = m.Value
		}
	}
	h.prevCumulative = prev
	events := h.events
	var fired, resolved []string
	for _, a := range h.alerts {
		switch {
		case a.state == AlertFiring && a.firedAt.Equal(now):
			fired = append(fired, fmt.Sprintf("alert=%s metric=%s value=%s",
				a.rule.Name, a.rule.Metric, trimAlertFloat(a.value)))
		case a.state == AlertOK && a.firedAt.Equal(now):
			resolved = append(resolved, fmt.Sprintf("alert=%s metric=%s value=%s",
				a.rule.Name, a.rule.Metric, trimAlertFloat(a.value)))
		}
	}
	h.mu.Unlock()
	// Emit outside the store lock: the event sink may do file I/O.
	for _, d := range fired {
		events.Emit(EvAlertFiring, "", d)
	}
	for _, d := range resolved {
		events.Emit(EvAlertResolved, "", d)
	}
}

// record folds one raw sample into the tier: factor-1 tiers store it
// directly, coarser tiers accumulate and flush the mean every factor
// samples, stamped with the last contributing sample's time.
func (t *historyTier) record(name string, ms int64, v float64, slots int) {
	if t.factor == 1 {
		t.seriesFor(name, slots).push(point{timeMs: ms, value: v})
		return
	}
	a := t.acc[name]
	if a == nil {
		a = &accum{}
		t.acc[name] = a
	}
	a.sum += v
	a.count++
	if a.count >= t.factor {
		t.seriesFor(name, slots).push(point{timeMs: ms, value: a.sum / float64(a.count)})
		a.sum, a.count = 0, 0
	}
}

func (t *historyTier) seriesFor(name string, slots int) *series {
	s := t.series[name]
	if s == nil {
		s = &series{pts: make([]point, slots)}
		t.series[name] = s
	}
	return s
}

// evalAlertsLocked advances every rule's state machine against this
// sample. Cumulative series evaluate the per-second rate since the last
// sample; everything else the sampled value. A rule whose metric is absent
// from the sample stays (or returns to) ok. Callers hold h.mu. Transitions
// are published by sampleAt afterwards.
func (h *History) evalAlertsLocked(now time.Time, flat []Metric) {
	byName := make(map[string]Metric, len(flat))
	for _, m := range flat {
		byName[m.Name] = m
	}
	for _, a := range h.alerts {
		m, ok := byName[a.rule.Metric]
		v := m.Value
		if ok && m.Cumulative() {
			if h.prevCumulative == nil {
				ok = false // no rate until a second sample exists
			} else {
				v = (v - h.prevCumulative[m.Name]) / h.interval.Seconds()
			}
		}
		a.value = v
		cond := ok && ((a.rule.Op == '>' && v > a.rule.Threshold) ||
			(a.rule.Op == '<' && v < a.rule.Threshold))
		switch {
		case cond && a.state == AlertOK:
			a.state, a.since = AlertPending, now
			fallthrough
		case cond && a.state == AlertPending:
			if now.Sub(a.since) >= a.rule.For {
				a.state = AlertFiring
				a.since = now
				a.fired++
				a.firedAt = now
			}
		case !cond && a.state == AlertFiring:
			a.state, a.since = AlertOK, time.Time{}
			a.firedAt = now // marks the resolve for sampleAt's emit pass
		case !cond && a.state == AlertPending:
			a.state, a.since = AlertOK, time.Time{}
		}
	}
}

func trimAlertFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', 6, 64)
}

// Query returns the stored points of the named series (every series when
// name is empty) with TimeMs ≥ sinceMs, ordered by name, then resolution
// (finest first), then time. A nil store returns nil.
func (h *History) Query(name string, sinceMs int64) []HistoryPoint {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var names []string
	if name != "" {
		names = []string{name}
	} else {
		seen := make(map[string]bool)
		for _, t := range h.tiers {
			for n := range t.series {
				if !seen[n] {
					seen[n] = true
					names = append(names, n)
				}
			}
		}
		sort.Strings(names)
	}
	var out []HistoryPoint
	for _, n := range names {
		for _, t := range h.tiers {
			s := t.series[n]
			if s == nil {
				continue
			}
			s.each(func(p point) {
				if p.timeMs >= sinceMs {
					out = append(out, HistoryPoint{
						Name: n, TimeMs: p.timeMs, Value: p.value, Resolution: t.label,
					})
				}
			})
		}
	}
	return out
}

// Resolutions returns the tier labels, finest first.
func (h *History) Resolutions() []string {
	if h == nil {
		return nil
	}
	out := make([]string, len(h.tiers))
	for i, t := range h.tiers {
		out[i] = t.label
	}
	return out
}

// Alerts returns every rule's current status, in registration order.
func (h *History) Alerts() []AlertStatus {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]AlertStatus, 0, len(h.alerts))
	for _, a := range h.alerts {
		st := AlertStatus{
			Name:       a.rule.Name,
			Metric:     a.rule.Metric,
			Op:         string(a.rule.Op),
			Threshold:  a.rule.Threshold,
			ForSeconds: a.rule.For.Seconds(),
			State:      a.state,
			Value:      a.value,
			Fired:      a.fired,
		}
		if !a.since.IsZero() {
			st.SinceMs = a.since.UnixMilli()
		}
		out = append(out, st)
	}
	return out
}

// Start launches the sampler goroutine: one sample of reg every interval.
// It samples once synchronously so series exist immediately. Start on an
// already-started store is a no-op; Stop halts the goroutine and waits for
// it.
func (h *History) Start(reg *Registry) {
	if h == nil {
		return
	}
	h.samplerMu.Lock()
	defer h.samplerMu.Unlock()
	if h.stop != nil {
		return
	}
	h.stop = make(chan struct{})
	h.done = make(chan struct{})
	h.Sample(reg)
	go func(stop, done chan struct{}) {
		defer close(done)
		tick := time.NewTicker(h.interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				h.Sample(reg)
			}
		}
	}(h.stop, h.done)
}

// Stop halts the sampler goroutine and waits for it to exit. Safe on a
// nil or never-started store, and idempotent.
func (h *History) Stop() {
	if h == nil {
		return
	}
	h.samplerMu.Lock()
	defer h.samplerMu.Unlock()
	if h.stop == nil {
		return
	}
	close(h.stop)
	<-h.done
	h.stop, h.done = nil, nil
}
