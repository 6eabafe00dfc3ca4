package obs

import (
	"math"
	"runtime/metrics"
)

// Runtime gauge names reported by collectRuntime. These describe the
// process, not the simulation, so they live in their own runtime.*
// namespace.
const (
	RuntimeHeapBytes  = "runtime.heap.objects_bytes" // live heap object bytes
	RuntimeTotalBytes = "runtime.mem.total_bytes"    // total Go runtime memory
	RuntimeGoroutines = "runtime.goroutines"         // current goroutine count
	RuntimeGCCycles   = "runtime.gc.cycles"          // completed GC cycles
	RuntimeGCPauseP99 = "runtime.gc.pause_p99_s"     // p99 GC pause, seconds
)

// runtimeSamples maps runtime/metrics sample names to registry gauges.
var runtimeSamples = []struct {
	metric string
	gauge  string
}{
	{"/memory/classes/heap/objects:bytes", RuntimeHeapBytes},
	{"/memory/classes/total:bytes", RuntimeTotalBytes},
	{"/sched/goroutines:goroutines", RuntimeGoroutines},
	{"/gc/cycles/total:gc-cycles", RuntimeGCCycles},
	{"/gc/pauses:seconds", RuntimeGCPauseP99},
}

// collectRuntime is the collector of process health: heap size, total
// memory, goroutine count, GC cycles and GC pause p99, read from
// runtime/metrics at the moment the registry is read. The telemetry server
// registers it on the registry it exposes.
func collectRuntime(set func(name string, v float64)) {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, rs := range runtimeSamples {
		samples[i].Name = rs.metric
	}
	metrics.Read(samples)
	for i, sm := range samples {
		gauge := runtimeSamples[i].gauge
		switch sm.Value.Kind() {
		case metrics.KindUint64:
			set(gauge, float64(sm.Value.Uint64()))
		case metrics.KindFloat64:
			set(gauge, sm.Value.Float64())
		case metrics.KindFloat64Histogram:
			set(gauge, histQuantile(sm.Value.Float64Histogram(), 0.99))
		}
	}
}

// histQuantile estimates a quantile of a runtime/metrics histogram
// (cumulative over the process lifetime). Infinite bucket edges fall back
// to the nearest finite edge.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			// Bucket i spans [Buckets[i], Buckets[i+1]).
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) || math.IsNaN(lo) {
				lo = 0
			}
			if math.IsInf(hi, 1) || math.IsNaN(hi) {
				hi = lo
			}
			return (lo + hi) / 2
		}
	}
	return 0
}
