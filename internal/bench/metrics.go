package bench

import (
	"fmt"
	"io"

	"corgipile/internal/data"
	"corgipile/internal/executor"
	"corgipile/internal/iosim"
	"corgipile/internal/obs"
	"corgipile/internal/shuffle"
)

// ProfileOptions configures one instrumented SVM training run for Profile —
// the "where does the time go" mode behind corgibench -metrics.
type ProfileOptions struct {
	// Workload names the synthetic dataset (default "higgs"); Scale scales
	// it (default 0.2 — profiles want quick turnaround).
	Workload string
	Scale    float64
	// Strategy is the shuffling strategy (default CorgiPile).
	Strategy shuffle.Kind
	// Epochs is the number of passes (default 5).
	Epochs int
	// Device is the profile name: "hdd", "ssd", "ram" (default "hdd" —
	// the regime where the I/O decomposition is most interesting).
	Device string
	// DoubleBuffer enables the Section 6.3 overlap optimization.
	DoubleBuffer bool
	// TraceOut, when non-nil, additionally receives the JSONL event stream
	// (per-epoch breakdowns, diagnostics events, and a final snapshot).
	TraceOut io.Writer
	// Registry, when non-nil, is used instead of a fresh one — the telemetry
	// server scrapes it while the run is live.
	Registry *obs.Registry
	// Feed, when non-nil, receives one live status update per epoch.
	Feed *obs.RunFeed
	// Diag enables the convergence diagnostics; the verdict is printed after
	// the breakdown table.
	Diag bool
	// RunDir, when non-empty, receives durable run artifacts: manifest.json,
	// epochs.jsonl and a final metrics snapshot (plus plan.json when
	// Explain is set).
	RunDir string
	// Explain switches on the plan's per-operator profiling and prints the
	// annotated plan tree after the breakdown tables; the tree also streams
	// through Feed and lands in RunDir as plan.json.
	Explain bool
}

func (o ProfileOptions) withDefaults() ProfileOptions {
	if o.Workload == "" {
		o.Workload = "higgs"
	}
	if o.Scale == 0 {
		o.Scale = 0.2
	}
	if o.Epochs == 0 {
		o.Epochs = 5
	}
	if o.Device == "" {
		o.Device = "hdd"
	}
	return o
}

// Profile runs one fully instrumented training pass and writes the
// per-epoch cross-layer breakdown (I/O time, bytes, seek fraction, cache
// hit-rate, shuffle fill time, gradient time, loss) plus a totals table
// to w. When opts.TraceOut is set the same data streams there as JSONL.
func Profile(w io.Writer, opts ProfileOptions) error {
	opts = opts.withDefaults()
	prof, ok := iosim.ProfileByName(opts.Device)
	if !ok {
		return fmt.Errorf("bench: unknown device %q (hdd, ssd, ram)", opts.Device)
	}
	opts.Strategy = executor.TrainConfig{Strategy: opts.Strategy}.WithDefaults().Strategy
	reg := opts.Registry
	if reg == nil {
		reg = obs.New()
	}
	if opts.TraceOut != nil {
		reg.StreamTo(opts.TraceOut)
	}
	runName := fmt.Sprintf("corgibench %s/%s/%s", opts.Workload, opts.Strategy, opts.Device)
	s := spec{
		workload: opts.Workload, order: data.OrderClustered, scale: opts.Scale, device: prof,
		TrainConfig: executor.TrainConfig{Epochs: opts.Epochs, Strategy: opts.Strategy,
			DoubleBuffer: opts.DoubleBuffer, Metrics: reg, Feed: opts.Feed, RunName: runName,
			Diag: opts.Diag, Explain: opts.Explain},
	}
	o, err := run(s)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("%s on %s, %s (scale %g): where the time goes",
		strategyLabel(opts.Strategy), opts.Device, opts.Workload, opts.Scale)
	if err := obs.WriteEpochTable(w, title, o.res.Breakdown); err != nil {
		return err
	}
	fmt.Fprintf(w, "total %s (prep %s)\n\n", fmtSecs(o.total), fmtSecs(o.prep))
	if err := reg.WriteCounterTable(w, "run totals"); err != nil {
		return err
	}
	if opts.Diag && o.res.Verdict != "" {
		fmt.Fprintf(w, "convergence verdict: %s\n", o.res.Verdict)
	}
	if opts.Explain && o.res.Plan != nil {
		fmt.Fprintf(w, "\nexecuted plan (EXPLAIN ANALYZE):\n")
		o.res.Plan.WriteText(w, true)
	}
	reg.EmitSnapshot("final")
	if opts.RunDir == "" {
		return nil
	}
	dir := opts.RunDir
	opts.TraceOut = nil // not serializable config
	opts.Registry = nil
	opts.Feed = nil
	return obs.WriteRunDir(dir, obs.RunArtifacts{
		Manifest: obs.Manifest{
			Tool:   "corgibench",
			Run:    runName,
			Seed:   s.WithDefaults().Seed,
			Config: opts,
		},
		Epochs:  o.res.Breakdown,
		Plan:    o.res.Plan,
		Metrics: reg,
	})
}
