package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Compare re-runs the fault sweep behind a committed BENCH_faults.json
// baseline and reports per-metric regressions against it. It returns the
// number of regressions found; callers typically exit non-zero when it is
// positive. The sweep is simulated and deterministic, so every cell is
// compared (near-)exactly on any host.
func Compare(w io.Writer, path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var probe struct {
		Stamp Stamp             `json:"stamp"`
		Grid  []json.RawMessage `json:"grid"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return 0, fmt.Errorf("bench: %s: %w", path, err)
	}
	if probe.Stamp.GitSHA != "" {
		fmt.Fprintf(w, "baseline %s: git %s, %s", path, probe.Stamp.GitSHA, probe.Stamp.GoVersion)
		if probe.Stamp.Time != "" {
			fmt.Fprintf(w, ", %s", probe.Stamp.Time)
		}
		fmt.Fprintln(w)
	}
	if probe.Grid == nil {
		return 0, fmt.Errorf("bench: %s: not a fault-sweep report", path)
	}
	return compareFaults(w, raw)
}

// compareFaults re-runs the (fully simulated, deterministic) fault sweep and
// compares every cell near-exactly.
func compareFaults(w io.Writer, raw []byte) (int, error) {
	var base FaultSweepReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return 0, err
	}
	cur, err := FaultSweepRun(io.Discard)
	if err != nil {
		return 0, err
	}

	regressions := 0
	fail := func(format string, args ...any) {
		regressions++
		fmt.Fprintf(w, "  REGRESSION "+format+"\n", args...)
	}
	if !closeEnough(base.CleanAcc, cur.CleanAcc) {
		fail("clean_acc %.6f -> %.6f", base.CleanAcc, cur.CleanAcc)
	}
	if len(base.Grid) != len(cur.Grid) {
		fail("grid size %d -> %d", len(base.Grid), len(cur.Grid))
	} else {
		for i := range base.Grid {
			regressions += compareCell(w, fmt.Sprintf("grid[%d]", i), base.Grid[i], cur.Grid[i])
		}
	}
	regressions += compareCell(w, "corrupt_skip_scenario", base.Corrupt, cur.Corrupt)
	fmt.Fprintf(w, "fault-sweep compare: %d cells, %d regressions\n",
		len(base.Grid)+1, regressions)
	return regressions, nil
}

// compareCell compares one fault-sweep cell and returns the number of
// mismatches it printed.
func compareCell(w io.Writer, name string, b, c FaultCell) int {
	n := 0
	fail := func(format string, args ...any) {
		n++
		fmt.Fprintf(w, "  REGRESSION %s (err=%.2f retries=%d): "+format+"\n",
			append([]any{name, b.ReadErrorProb, b.Retries}, args...)...)
	}
	if b.Completed != c.Completed {
		fail("completed %v -> %v (%s)", b.Completed, c.Completed, c.Error)
	}
	if b.Completed && c.Completed {
		if !closeEnough(b.FinalLoss, c.FinalLoss) {
			fail("final_loss %.6f -> %.6f", b.FinalLoss, c.FinalLoss)
		}
		if !closeEnough(b.FinalAcc, c.FinalAcc) {
			fail("final_acc %.6f -> %.6f", b.FinalAcc, c.FinalAcc)
		}
	}
	if b.TransientErrors != c.TransientErrors {
		fail("transient_errors %d -> %d", b.TransientErrors, c.TransientErrors)
	}
	if b.RetriesUsed != c.RetriesUsed {
		fail("retries_used %d -> %d", b.RetriesUsed, c.RetriesUsed)
	}
	if b.SkippedTuples != c.SkippedTuples {
		fail("skipped_tuples %d -> %d", b.SkippedTuples, c.SkippedTuples)
	}
	if !closeEnough(b.SimSeconds, c.SimSeconds) {
		fail("sim_seconds %.6f -> %.6f", b.SimSeconds, c.SimSeconds)
	}
	return n
}

// closeEnough compares two floats with a tiny relative epsilon — the sweep is
// deterministic, so this only absorbs formatting round-trips.
func closeEnough(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}
