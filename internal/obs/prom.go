package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file renders a Registry in the Prometheus text exposition format
// (version 0.0.4), the wire format every Prometheus-compatible scraper
// understands. Counters render as counters, gauges as gauges, and duration
// histograms as summaries with p50/p95/p99 quantiles in seconds.
//
// Rendering is deterministic: metric families are emitted in sorted name
// order, so the output is directly comparable across scrapes and suitable
// for golden tests and run artifacts.

// promPrefix namespaces every exported metric.
const promPrefix = "corgipile_"

// promName sanitizes a registry metric name into a Prometheus metric name:
// dots and dashes become underscores and the corgipile_ namespace prefix is
// applied.
func promName(name string) string {
	var b strings.Builder
	b.WriteString(promPrefix)
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry's current state in the Prometheus
// text exposition format. A nil registry renders nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format — counters, gauges, then duration histograms as summaries with
// p50/p95/p99 quantiles in seconds.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[k]); err != nil {
			return err
		}
	}

	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", n, n, promFloat(s.Gauges[k])); err != nil {
			return err
		}
	}

	names = names[:0]
	for k := range s.Hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Hists[k]
		n := promName(k) + "_seconds"
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n", n); err != nil {
			return err
		}
		for _, q := range quantiles {
			if _, err := fmt.Fprintf(w, "%s{quantile=%q} %s\n",
				n, promFloat(q.q), promFloat(h.Quantile(q.q).Seconds())); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
			n, promFloat(h.Sum.Seconds()), n, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// promFloat renders a float in the shortest exact form, matching the
// exposition format's expectations (no exponent for small values).
func promFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}
