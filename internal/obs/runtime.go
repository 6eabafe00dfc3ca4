package obs

import (
	"math"
	"runtime/metrics"
	"time"
)

// Runtime gauge names fed by the RuntimeSampler. These describe the
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

// RuntimeSampler periodically folds runtime/metrics (heap size, total
// memory, goroutine count, GC cycles and pause p99) into a Registry as
// gauges. The telemetry server starts one so that /metrics exposes process
// health next to the training metrics; it samples on a ticker goroutine
// and stops cleanly via Stop.
type RuntimeSampler struct {
	stop chan struct{}
	done chan struct{}
}

// StartRuntimeSampler samples runtime metrics into r every second. It
// samples once synchronously before returning, so gauges are present
// immediately.
func StartRuntimeSampler(r *Registry) *RuntimeSampler {
	s := &RuntimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, rs := range runtimeSamples {
		samples[i].Name = rs.metric
	}
	sampleOnce(r, samples)
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				sampleOnce(r, samples)
			}
		}
	}()
	return s
}

// Stop halts the sampler goroutine and waits for it to exit. Safe to call
// on a nil sampler.
func (s *RuntimeSampler) Stop() {
	if s == nil {
		return
	}
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

// sampleOnce reads all configured runtime metrics and records them.
func sampleOnce(r *Registry, samples []metrics.Sample) {
	metrics.Read(samples)
	for i, sm := range samples {
		gauge := runtimeSamples[i].gauge
		switch sm.Value.Kind() {
		case metrics.KindUint64:
			r.SetGauge(gauge, float64(sm.Value.Uint64()))
		case metrics.KindFloat64:
			r.SetGauge(gauge, sm.Value.Float64())
		case metrics.KindFloat64Histogram:
			r.SetGauge(gauge, histQuantile(sm.Value.Float64Histogram(), 0.99))
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
