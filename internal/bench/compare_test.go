package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestNewStamp(t *testing.T) {
	at := time.Date(2026, 8, 6, 12, 30, 0, 0, time.FixedZone("x", 3600))
	s := NewStamp(at)
	if s.GoVersion != runtime.Version() {
		t.Fatalf("go version %q, want %q", s.GoVersion, runtime.Version())
	}
	if s.GitSHA == "" {
		t.Fatal("git SHA must never be empty (falls back to \"unknown\")")
	}
	if s.Time != "2026-08-06T11:30:00Z" {
		t.Fatalf("time %q, want UTC RFC 3339", s.Time)
	}
	if z := NewStamp(time.Time{}); z.Time != "" {
		t.Fatalf("zero time should stamp no timestamp, got %q", z.Time)
	}
}

func TestCloseEnough(t *testing.T) {
	if !closeEnough(1.0, 1.0) || !closeEnough(0, 0) {
		t.Fatal("identical values must compare equal")
	}
	if !closeEnough(1e6, 1e6*(1+1e-12)) {
		t.Fatal("sub-epsilon relative difference must pass")
	}
	if closeEnough(1.0, 1.001) {
		t.Fatal("0.1% difference must fail")
	}
	if closeEnough(0, 1e-6) {
		t.Fatal("absolute difference above epsilon must fail")
	}
}

func TestCompareCell(t *testing.T) {
	base := FaultCell{
		ReadErrorProb: 0.01, Retries: 3, Completed: true,
		FinalLoss: 0.5, FinalAcc: 0.9, SimSeconds: 12.5,
		TransientErrors: 4, RetriesUsed: 4,
	}
	var sink strings.Builder
	if n := compareCell(&sink, "cell", base, base); n != 0 {
		t.Fatalf("identical cells produced %d regressions:\n%s", n, sink.String())
	}

	perturbed := base
	perturbed.FinalLoss += 1e-3
	perturbed.RetriesUsed++
	sink.Reset()
	if n := compareCell(&sink, "cell", base, perturbed); n != 2 {
		t.Fatalf("want 2 regressions (loss, retries), got %d:\n%s", n, sink.String())
	}
	if out := sink.String(); !strings.Contains(out, "final_loss") || !strings.Contains(out, "retries_used") {
		t.Fatalf("regression report missing metric names:\n%s", out)
	}

	failed := base
	failed.Completed = false
	failed.Error = "boom"
	sink.Reset()
	if n := compareCell(&sink, "cell", base, failed); n == 0 {
		t.Fatal("completed -> failed must regress")
	}
	if !strings.Contains(sink.String(), "boom") {
		t.Fatalf("failure report should carry the run error:\n%s", sink.String())
	}
}

func TestCompareRejectsBadInput(t *testing.T) {
	var sink strings.Builder
	if _, err := Compare(&sink, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing baseline file must error")
	}

	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Compare(&sink, bad); err == nil {
		t.Fatal("unparseable baseline must error")
	}

	// Valid JSON, but not a fault-sweep report. The stamp line must still be
	// printed before the shape check fails.
	shapeless := filepath.Join(dir, "shapeless.json")
	stamped, _ := json.Marshal(map[string]any{
		"stamp": Stamp{GitSHA: "cafebabe", GoVersion: "go1.24.0"},
	})
	if err := os.WriteFile(shapeless, stamped, 0o644); err != nil {
		t.Fatal(err)
	}
	sink.Reset()
	if _, err := Compare(&sink, shapeless); err == nil {
		t.Fatal("report without a grid must error")
	} else if !strings.Contains(err.Error(), "not a fault-sweep report") {
		t.Fatalf("unexpected error: %v", err)
	}
	if !strings.Contains(sink.String(), "cafebabe") {
		t.Fatalf("stamp line not printed:\n%s", sink.String())
	}
}
