package corgipile

import (
	"context"
	"fmt"
	"time"

	"corgipile/internal/core"
	"corgipile/internal/executor"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/shuffle"
	"corgipile/internal/storage"
)

// TrainConfig configures a high-level training run.
type TrainConfig struct {
	// Model names the learner: "lr", "svm", "linreg", "softmax", "mlp",
	// "fm".
	Model string
	// Optimizer names the update rule: "sgd" (default) or "adam".
	Optimizer string
	// LearningRate is the initial step size (default 0.05).
	LearningRate float64
	// Decay multiplies the SGD learning rate after each epoch (default
	// 0.95, the paper's setting; ignored by Adam).
	Decay float64
	// L2 is the SGD weight-decay coefficient (0 = none; ignored by Adam).
	L2 float64
	// Epochs is the number of passes (default 10).
	Epochs int
	// BatchSize selects mini-batch SGD when > 1.
	BatchSize int
	// Strategy is the shuffling strategy (default CorgiPile).
	Strategy StrategyKind
	// BufferFraction sizes the shuffle buffer (default 0.1).
	BufferFraction float64
	// DoubleBuffer enables the I/O-compute overlap optimization.
	DoubleBuffer bool
	// Device selects the simulated storage profile: "hdd", "ssd", "ram"
	// (default "ssd"). Ignored when training in memory via Train.
	Device string
	// BlockSize is the storage block size in bytes (default 10 MiB).
	BlockSize int64
	// Seed drives all randomness (default 1).
	Seed int64
	// Metrics, when non-nil, collects cross-layer observability data: it is
	// attached to the clock, device, shuffle strategy, and training loop, and
	// Result.Breakdown then carries one per-epoch time-breakdown row. Create
	// one with NewMetrics.
	Metrics *Metrics
	// Retries is the number of retry attempts after a transient block-read
	// error (0 = fail on the first error, today's default). Backoff between
	// attempts is exponential with deterministic jitter, charged to the
	// simulated clock.
	Retries int
	// RetryBackoff is the base backoff before the first retry (default 1ms).
	RetryBackoff time.Duration
	// OnCorrupt picks the degrade policy for permanently corrupt blocks:
	// "fail" (default) aborts; "skip" quarantines the block and keeps
	// training, recording the loss in Result.Faults.
	OnCorrupt string
	// MaxSkipFraction caps the tuple fraction "skip" may quarantine before
	// aborting anyway (0 = 5%).
	MaxSkipFraction float64
	// Faults, when non-nil, attaches a deterministic fault-injection plan to
	// the simulated device (TrainOnDevice only; Train has no device).
	Faults *FaultPlan
	// Diag enables the convergence diagnostics (per-epoch
	// gradient norm, update norm, loss delta, plateau/divergence verdict);
	// Result.Diag and Result.Verdict carry the outcome. Diagnostics are
	// read-only: the loss trace is bit-for-bit identical with or without.
	Diag bool
	// Feed, when non-nil, receives one live RunStatus update per epoch —
	// serve it over HTTP with ServeTelemetry.
	Feed *RunFeed
	// RunName labels feed updates (free-form).
	RunName string
	// Explain switches on per-operator profiling: Result.Plan then carries
	// the annotated plan tree (the EXPLAIN ANALYZE payload), and the same
	// tree streams per epoch through Feed. It switches profiling, not the
	// engine: every run is the same Volcano plan (BlockShuffle →
	// TupleShuffle → SGD for CorgiPile), so weights, loss trace and
	// simulated time are bit-identical with and without it for every
	// strategy.
	Explain bool
	// Ctx, when non-nil, cancels the run: training checks it between epochs
	// and every few hundred tuples inside an epoch, then returns the
	// context's error. This is the hook the serving plane uses to stop an
	// in-flight job (CANCEL, dropped connection); a nil Ctx never cancels.
	Ctx context.Context
	// Events, when non-nil, records one span per epoch in the structured
	// event log, stamped with Trace. A nil Events adds no work and never
	// touches the Metrics registry's JSONL trace.
	Events *EventLog
	// Trace labels this run's event-log spans (free-form request id).
	Trace string
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Model == "" {
		c.Model = "svm"
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.Strategy == "" {
		c.Strategy = CorgiPile
	}
	if c.BufferFraction == 0 {
		c.BufferFraction = 0.1
	}
	if c.Device == "" {
		c.Device = "ssd"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Train runs SGD over an in-memory dataset with the configured shuffling
// strategy and returns the convergence trace. I/O is not simulated; use
// TrainOnDevice for end-to-end timing over simulated storage.
func Train(ds *Dataset, cfg TrainConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	// N = 256 blocks, the same block-count regime as the paper's 10 MB
	// blocks over multi-GB tables.
	perBlock := ds.Len() / 256
	if perBlock < 1 {
		perBlock = 1
	}
	src := shuffle.NewMemSource(ds, perBlock)
	return trainOn(src, ds, cfg, nil)
}

// TrainOnDevice lays the dataset out as a table on a simulated device,
// trains with the configured strategy, and returns the trace with simulated
// times (including any strategy preprocessing such as Shuffle Once's full
// sort). The returned clock holds the total simulated duration.
func TrainOnDevice(ds *Dataset, cfg TrainConfig) (*Result, *Clock, error) {
	cfg = cfg.withDefaults()
	prof, ok := iosim.ProfileByName(cfg.Device)
	if !ok {
		return nil, nil, fmt.Errorf("corgipile: unknown device %q", cfg.Device)
	}
	clock := iosim.NewClock()
	cfg.Metrics.WithClock(clock)
	dev := iosim.NewDevice(prof, clock).WithCache(16 << 30).WithObs(cfg.Metrics)
	if cfg.Faults != nil {
		dev.WithFaults(*cfg.Faults)
	}
	tab, err := storage.Build(dev, ds, storage.Options{BlockSize: cfg.BlockSize})
	if err != nil {
		return nil, nil, err
	}
	res, err := trainOn(shuffle.TableSource(tab), ds, cfg, clock)
	return res, clock, err
}

// trainOn is the shared implementation of Train and TrainOnDevice.
func trainOn(src shuffle.Source, ds *Dataset, cfg TrainConfig, clock *Clock) (*Result, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("corgipile: empty dataset")
	}
	model, err := ml.New(cfg.Model, ds.Classes)
	if err != nil {
		return nil, err
	}
	opt, err := ml.NewOptimizer(cfg.Optimizer, cfg.LearningRate)
	if err != nil {
		return nil, err
	}
	if sgd, ok := opt.(*ml.SGD); ok {
		if cfg.Decay != 0 {
			sgd.Decay = cfg.Decay
		}
		sgd.L2 = cfg.L2
	}
	policy, err := shuffle.ParseFailurePolicy(cfg.OnCorrupt)
	if err != nil {
		return nil, err
	}
	op, err := executor.BuildSGDPlan(src, executor.PlanConfig{
		Shuffle:        cfg.Strategy,
		BufferFraction: cfg.BufferFraction,
		DoubleBuffer:   cfg.DoubleBuffer,
		Seed:           cfg.Seed,
		Profile:        cfg.Explain,
		Resilience: shuffle.Resilience{
			Retry: storage.RetryPolicy{
				MaxAttempts: cfg.Retries + 1,
				Backoff:     cfg.RetryBackoff,
				Seed:        cfg.Seed,
			},
			OnCorrupt:       policy,
			MaxSkipFraction: cfg.MaxSkipFraction,
		},
		SGD: executor.SGDConfig{
			Model:       model,
			Opt:         opt,
			Features:    ds.Features,
			Epochs:      cfg.Epochs,
			BatchSize:   cfg.BatchSize,
			Clock:       clock,
			TrainEval:   ds,
			InitWeights: core.InitWeights(model, ds.Features, cfg.Seed),
			Obs:         cfg.Metrics,
			Diag:        cfg.Diag,
			Feed:        cfg.Feed,
			RunName:     cfg.RunName,
			Ctx:         cfg.Ctx,
			Events:      cfg.Events,
			Trace:       cfg.Trace,
		},
	})
	if err != nil {
		return nil, err
	}
	return op.RunResult()
}

// CorgiPileDataset is the paper's PyTorch-style dataset API: it streams the
// tuples of an in-memory dataset in two-level shuffled order, one epoch at
// a time. Construct it once, then call Epoch for each pass:
//
//	cds := corgipile.NewCorgiPileDataset(ds, 0.1, 100, 1)
//	for epoch := 0; epoch < 10; epoch++ {
//		next := cds.Epoch(epoch)
//		for t, ok := next(); ok; t, ok = next() {
//			// feed t to the training loop
//		}
//	}
type CorgiPileDataset struct {
	src *shuffle.MemSource
	st  Strategy
}

// NewCorgiPileDataset wraps ds with two-level shuffling: blocks of
// blockTuples tuples, an in-memory buffer of bufferFraction of the dataset,
// randomness from seed.
func NewCorgiPileDataset(ds *Dataset, bufferFraction float64, blockTuples int, seed int64) (*CorgiPileDataset, error) {
	src := shuffle.NewMemSource(ds, blockTuples)
	st, err := shuffle.New(CorgiPile, src, shuffle.Options{
		BufferFraction: bufferFraction,
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	return &CorgiPileDataset{src: src, st: st}, nil
}

// Epoch returns a pull function streaming epoch s's shuffled tuples.
func (c *CorgiPileDataset) Epoch(s int) func() (*Tuple, bool) {
	it, err := c.st.StartEpoch(s)
	if err != nil {
		// MemSource epochs cannot fail; guard anyway.
		return func() (*Tuple, bool) { return nil, false }
	}
	return it.Next
}

// SimulatedSeconds converts a simulated duration to seconds for reporting.
func SimulatedSeconds(d time.Duration) float64 { return d.Seconds() }
