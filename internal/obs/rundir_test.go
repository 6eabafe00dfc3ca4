package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestWriteRunDir pins the run directory every tool writes: an indented
// manifest with the build stamp filled in, one epochs.jsonl row per epoch,
// plan.json only for a profiled run, and metrics.prom as /metrics renders
// it.
func TestWriteRunDir(t *testing.T) {
	reg := New()
	reg.Add(SGDTuples, 40)
	dir := filepath.Join(t.TempDir(), "nested", "run")
	err := WriteRunDir(dir, RunArtifacts{
		Manifest: Manifest{Tool: "test", Seed: 7, Config: map[string]int{"epochs": 2}},
		Epochs:   []EpochMetrics{{Epoch: 1, Tuples: 20}, {Epoch: 2, Tuples: 20}},
		Plan:     samplePlan(),
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Tool != "test" || m.Seed != 7 || m.GitSHA == "" || m.GoVersion != runtime.Version() {
		t.Fatalf("manifest %+v", m)
	}
	if !strings.HasPrefix(string(raw), "{\n  \"tool\"") || !strings.HasSuffix(string(raw), "}\n") {
		t.Fatalf("manifest not indented JSON with a trailing newline:\n%s", raw)
	}

	f, err := os.Open(filepath.Join(dir, "epochs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []EpochMetrics
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var row EpochMetrics
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 2 || rows[1].Epoch != 2 || rows[1].Tuples != 20 {
		t.Fatalf("epochs.jsonl rows %+v", rows)
	}

	if plan, err := os.ReadFile(filepath.Join(dir, "plan.json")); err != nil || !strings.Contains(string(plan), `"name": "SGD"`) {
		t.Fatalf("plan.json = %q, %v", plan, err)
	}
	prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil || !strings.Contains(string(prom), "corgipile_sgd_tuples 40\n") {
		t.Fatalf("metrics.prom = %q, %v", prom, err)
	}

	// No plan, no rows: no plan.json, and an empty epochs.jsonl.
	bare := t.TempDir()
	if err := WriteRunDir(bare, RunArtifacts{Manifest: Manifest{Tool: "test"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(bare, "plan.json")); !os.IsNotExist(err) {
		t.Fatalf("plan.json without a plan: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(bare, "epochs.jsonl")); err != nil || fi.Size() != 0 {
		t.Fatalf("epochs.jsonl without rows: %v, %v", fi, err)
	}
}
