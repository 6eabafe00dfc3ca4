package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one harness-side interval around a call into a layer.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the end-to-end pass runs.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span under parent (0 = root) and returns its id.
func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Workload: t.workload, StartNs: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// traceFile is what a traced pass leaves in the output directory.
type traceFile struct {
	Stamp    stamp  `json:"stamp"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir string, st stamp, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	buf, err := json.Marshal(traceFile{Stamp: st, Workload: t.workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	return path, os.WriteFile(path, buf, 0o644)
}
