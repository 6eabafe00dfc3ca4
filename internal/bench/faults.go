package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/executor"
	"corgipile/internal/iosim"
	"corgipile/internal/shuffle"
	"corgipile/internal/storage"
)

// FaultCell is one sweep point: a fault rate trained under a retry budget.
type FaultCell struct {
	// ReadErrorProb is the injected per-read transient error probability.
	ReadErrorProb float64 `json:"read_error_prob"`
	// Retries is the retry budget (attempts after the first).
	Retries int `json:"retries"`
	// Completed reports whether training survived the fault storm; Error
	// holds the failure when it did not.
	Completed bool   `json:"completed"`
	Error     string `json:"error,omitempty"`
	// FinalLoss and FinalAcc describe the last finished epoch.
	FinalLoss float64 `json:"final_loss,omitempty"`
	FinalAcc  float64 `json:"final_acc,omitempty"`
	// SimSeconds is the total simulated time, including retry backoff.
	SimSeconds float64 `json:"sim_seconds"`
	// TransientErrors, RetriesUsed and BackoffSeconds count the injected
	// faults and the recovery work they forced.
	TransientErrors int     `json:"transient_errors"`
	RetriesUsed     int     `json:"retries_used"`
	BackoffSeconds  float64 `json:"backoff_seconds"`
	// SkippedBlocks and SkippedTuples are non-zero only for the quarantine
	// scenario.
	SkippedBlocks []int `json:"skipped_blocks,omitempty"`
	SkippedTuples int   `json:"skipped_tuples,omitempty"`
}

// FaultSweepReport is the payload of BENCH_faults.json: training outcomes
// across a fault-rate x retry-budget grid, plus one corrupt-block quarantine
// scenario. CleanAcc is the fault-free baseline the degraded runs compare
// against.
type FaultSweepReport struct {
	// Stamp records the git revision, Go version and (when injected)
	// timestamp of the run that produced the report.
	Stamp    Stamp       `json:"stamp"`
	Workload string      `json:"workload"`
	Epochs   int         `json:"epochs"`
	CleanAcc float64     `json:"clean_acc"`
	Grid     []FaultCell `json:"grid"`
	Corrupt  FaultCell   `json:"corrupt_skip_scenario"`
}

// faultRun trains susy/clustered on simulated SSD under the given fault plan
// with the run cfg describes (its epochs and resilience policy, every other
// knob at its default), and summarizes the outcome as a FaultCell.
func faultRun(ds *data.Dataset, cfg executor.TrainConfig, plan iosim.FaultPlan) FaultCell {
	cell := FaultCell{ReadErrorProb: plan.ReadErrorProb, Retries: cfg.Retries}
	clock := iosim.NewClock()
	dev := iosim.NewDevice(scaledDevice(iosim.SSD, ds), clock).
		WithCache(cacheBytes("susy", ds))
	if plan.Enabled() {
		dev.WithFaults(plan)
	}
	tab, err := storage.Build(dev, ds, storage.Options{BlockSize: paperBlockEquiv(ds)})
	if err != nil {
		cell.Error = err.Error()
		return cell
	}
	pc, err := cfg.Plan(ds.Features, ds.Classes)
	if err != nil {
		cell.Error = err.Error()
		return cell
	}
	pc.SGD.Clock, pc.SGD.TrainEval, pc.SGD.Faults = clock, ds, shuffle.NewFaultReport()
	op, err := executor.BuildSGDPlan(shuffle.TableSource(tab), pc)
	if err != nil {
		cell.Error = err.Error()
		return cell
	}
	res, err := op.RunResult()
	sum := pc.SGD.Faults.Summary()
	cell.SimSeconds = clock.Now().Seconds()
	cell.TransientErrors = int(sum.TransientErrors)
	cell.RetriesUsed = int(sum.Retries)
	cell.BackoffSeconds = sum.BackoffSeconds
	cell.SkippedBlocks = sum.SkippedBlocks
	cell.SkippedTuples = sum.SkippedTuples
	if err != nil {
		cell.Error = err.Error()
		return cell
	}
	cell.Completed = true
	cell.FinalLoss = res.Final().AvgLoss
	cell.FinalAcc = res.Final().TrainAcc
	return cell
}

// FaultSweep measures training through injected storage faults: a read-error
// rate x retry budget grid, plus a corrupt-block quarantine scenario. It
// prints a human-readable table to w and, when out is non-nil, writes the
// JSON report (the BENCH_faults.json artifact) to out. The stamp is embedded
// in the report.
func FaultSweep(w io.Writer, out io.Writer, stamp Stamp) error {
	rep, err := FaultSweepRun(w)
	if err != nil {
		return err
	}
	rep.Stamp = stamp
	if out != nil {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	return nil
}

// FaultSweepRun runs the sweep, printing the human-readable table to w, and
// returns the (unstamped) report. The sweep is fully simulated, so repeated
// runs on any machine produce identical numbers — the -compare mode relies
// on that.
func FaultSweepRun(w io.Writer) (FaultSweepReport, error) {
	const epochs = 5
	ds := data.Generate("susy", 0.2, data.OrderClustered)
	rep := FaultSweepReport{Workload: "susy", Epochs: epochs}

	clean := faultRun(ds, executor.TrainConfig{Epochs: epochs}, iosim.FaultPlan{})
	if clean.Error != "" {
		return rep, fmt.Errorf("bench: clean baseline failed: %s", clean.Error)
	}
	rep.CleanAcc = clean.FinalAcc

	fmt.Fprintf(w, "fault sweep (susy clustered, %d epochs, simulated ssd; clean acc %.4f)\n",
		epochs, rep.CleanAcc)
	fmt.Fprintf(w, "  %-10s %-8s %-10s %-9s %-10s %-8s %s\n",
		"read_err", "retries", "outcome", "acc", "transient", "retried", "sim_time")
	for _, prob := range []float64{0, 0.01, 0.05} {
		for _, retries := range []int{0, 1, 3} {
			plan := iosim.FaultPlan{Seed: 9, ReadErrorProb: prob, ErrorLatency: 2 * time.Millisecond}
			cell := faultRun(ds, executor.TrainConfig{Epochs: epochs, Retries: retries}, plan)
			rep.Grid = append(rep.Grid, cell)
			outcome := "ok"
			if !cell.Completed {
				outcome = "failed"
			}
			fmt.Fprintf(w, "  %-10.2f %-8d %-10s %-9.4f %-10d %-8d %.2fs\n",
				prob, retries, outcome, cell.FinalAcc, cell.TransientErrors,
				cell.RetriesUsed, cell.SimSeconds)
		}
	}

	// Quarantine scenario: two corrupt blocks under the skip policy.
	rep.Corrupt = faultRun(ds, executor.TrainConfig{Epochs: epochs, OnCorrupt: "skip"},
		iosim.FaultPlan{Seed: 9, CorruptBlocks: []int{3, 17}})
	c := rep.Corrupt
	fmt.Fprintf(w, "  corrupt blocks %v, on_corrupt=skip: completed=%v acc=%.4f (clean %.4f), %d tuples quarantined\n",
		c.SkippedBlocks, c.Completed, c.FinalAcc, rep.CleanAcc, c.SkippedTuples)

	return rep, nil
}
