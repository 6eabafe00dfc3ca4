// Command corgitop is a live terminal dashboard over a corgiserved
// telemetry plane: it polls the /metrics/history and /alertz endpoints that
// corgiserved -sample enables and renders the sampled series — jobs
// running/queued, WAL size, replication lag, predict latency quantiles — as
// current values with Unicode sparklines over the last two minutes, plus
// every alert rule's firing state.
//
// Usage:
//
//	corgitop -connect 127.0.0.1:9090 [-once]
//
// -connect takes the telemetry address (the server's -telemetry flag),
// with or without the http:// scheme. corgitop shows a curated set of
// serving-plane series and falls back to whatever the store has sampled.
// -once prints a single frame and exits (scriptable); otherwise the screen
// redraws every two seconds until interrupted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

// historyReply mirrors the /metrics/history JSON shape.
type historyReply struct {
	IntervalMs  int64    `json:"interval_ms"`
	Resolutions []string `json:"resolutions"`
	Points      []struct {
		Name       string  `json:"name"`
		TimeMs     int64   `json:"ts"`
		Value      float64 `json:"value"`
		Resolution string  `json:"resolution"`
	} `json:"points"`
}

// alertzReply mirrors the /alertz JSON shape.
type alertzReply struct {
	Alerts []struct {
		Name    string  `json:"name"`
		Metric  string  `json:"metric"`
		State   string  `json:"state"`
		Value   float64 `json:"value"`
		Fired   int64   `json:"fired"`
		SinceMs int64   `json:"since_ms"`
	} `json:"alerts"`
}

// defaultMetrics is the curated dashboard order; series absent from the
// store are skipped, and when none match the store's own names are shown.
var defaultMetrics = []string{
	"serve.jobs_running",
	"serve.jobs_queued",
	"serve.predict_p50",
	"serve.predict_p95",
	"serve.predict_p99",
	"serve.predict_count",
	"wal.size_bytes",
	"wal.last_lsn",
	"repl.lag_lsn",
	"repl.replicas",
	"sgd.tuples",
	"shuffle.blocks",
	"io.fault.transient",
}

// maxFallbackRows bounds the everything-else listing when no curated
// series exist.
const maxFallbackRows = 16

func main() {
	connect := flag.String("connect", "127.0.0.1:9090", "telemetry address (host:port or http://host:port) of a -sample'd server")
	once := flag.Bool("once", false, "print one frame and exit")
	flag.Parse()

	base := *connect
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")

	client := &http.Client{Timeout: 5 * time.Second}
	for {
		frame, err := render(client, base)
		if err != nil {
			frame = fmt.Sprintf("corgitop: %v\n(is the server running with -telemetry and -sample?)\n", err)
			if *once {
				fmt.Fprint(os.Stderr, frame)
				os.Exit(1)
			}
		}
		if !*once {
			// Clear and home; the frame repaints the whole screen.
			fmt.Print("\x1b[2J\x1b[H")
		}
		fmt.Print(frame)
		if *once {
			return
		}
		time.Sleep(refresh)
	}
}

// refresh is the redraw period, and window the history the sparklines
// cover.
const (
	refresh = 2 * time.Second
	window  = 2 * time.Minute
)

// render fetches one snapshot and formats the full dashboard frame.
func render(client *http.Client, base string) (string, error) {
	var hist historyReply
	if err := getJSON(client, base+"/metrics/history?since="+window.String(), &hist); err != nil {
		return "", err
	}
	var alerts alertzReply
	if err := getJSON(client, base+"/alertz", &alerts); err != nil {
		return "", err
	}

	// Keep only the finest resolution: sparklines want the raw tier, and
	// the coarser tiers repeat the same information smoothed.
	finest := ""
	if len(hist.Resolutions) > 0 {
		finest = hist.Resolutions[0]
	}
	series := make(map[string][]float64)
	last := make(map[string]float64)
	for _, p := range hist.Points {
		if p.Resolution != finest {
			continue
		}
		series[p.Name] = append(series[p.Name], p.Value) // points arrive time-ordered per series
		last[p.Name] = p.Value
	}

	var names []string
	for _, n := range defaultMetrics {
		if _, ok := series[n]; ok {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		for n := range series {
			names = append(names, n)
		}
		sort.Strings(names)
		if len(names) > maxFallbackRows {
			names = names[:maxFallbackRows]
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "corgitop — %s  (interval %s, window %s, %s tier)\n\n",
		base, (time.Duration(hist.IntervalMs) * time.Millisecond).String(), window, finest)
	width := 0
	for _, n := range names {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, n := range names {
		fmt.Fprintf(&b, "  %-*s  %12s  %s\n", width, n, formatValue(n, last[n]), sparkline(series[n], 40))
	}
	if len(names) == 0 {
		b.WriteString("  (no series sampled yet)\n")
	}
	b.WriteString("\nalerts:\n")
	if len(alerts.Alerts) == 0 {
		b.WriteString("  (none configured)\n")
	}
	for _, a := range alerts.Alerts {
		marker := " "
		if a.State == "firing" {
			marker = "!"
		}
		fmt.Fprintf(&b, " %s %-8s %-40s value=%g fired=%d\n",
			marker, a.State, a.Name, a.Value, a.Fired)
	}
	return b.String(), nil
}

// getJSON fetches url and decodes the body into out.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sparkBars are the eight block-element levels a sparkline cell can take.
var sparkBars = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the last width values scaled into block elements.
// A flat series renders as a low bar, not an empty string, so "steady at
// zero" and "no data" look different.
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 {
		return ""
	}
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkBars)-1))
		}
		out[i] = sparkBars[idx]
	}
	return string(out)
}

// formatValue renders a sample compactly: byte series get IEC units,
// second-valued quantile series get millisecond precision, counters and
// LSNs plain integers.
func formatValue(name string, v float64) string {
	switch {
	case strings.HasSuffix(name, "_bytes") || strings.Contains(name, ".size_bytes"):
		return formatBytes(v)
	case strings.HasSuffix(name, "_p50") || strings.HasSuffix(name, "_p95") || strings.HasSuffix(name, "_p99"):
		return fmt.Sprintf("%.3fms", v*1e3)
	case v == float64(int64(v)):
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// formatBytes renders a byte count with IEC units.
func formatBytes(v float64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB"}
	i := 0
	for v >= 1024 && i < len(units)-1 {
		v /= 1024
		i++
	}
	if i == 0 {
		return fmt.Sprintf("%d%s", int64(v), units[i])
	}
	return fmt.Sprintf("%.1f%s", v, units[i])
}
