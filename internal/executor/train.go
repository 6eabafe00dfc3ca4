package executor

import (
	"context"
	"time"

	"corgipile/internal/core"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
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
	Strategy shuffle.Kind
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
	Metrics *obs.Registry
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
	Faults *iosim.FaultPlan
	// Diag enables the convergence diagnostics (per-epoch
	// gradient norm, update norm, loss delta, plateau/divergence verdict);
	// Result.Diag and Result.Verdict carry the outcome. Diagnostics are
	// read-only: the loss trace is bit-for-bit identical with or without.
	Diag bool
	// Feed, when non-nil, receives one live RunStatus update per epoch —
	// serve it over HTTP with ServeTelemetry.
	Feed *obs.RunFeed
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
	Events *obs.EventLog
	// Trace labels this run's event-log spans (free-form request id).
	Trace string
}

// WithDefaults returns c with every unset knob at its default. A zero
// reads as unset, so these knobs cannot be set to zero.
func (c TrainConfig) WithDefaults() TrainConfig {
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
		c.Strategy = shuffle.KindCorgiPile
	}
	if c.BufferFraction == 0 {
		c.BufferFraction = shuffle.DefaultBufferFraction
	}
	if c.Device == "" {
		c.Device = "ssd"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Plan is the one path from a run's knobs, defaults filled in, to its plan
// over a table of the given feature and class counts: model, optimizer
// (decay, L2), retry and corrupt-block policy, initial weights, the loop's
// hooks and the profiling switch. The caller adds what only it knows: the
// clock, the evaluation sets, and any filter, resumed weights,
// ComputeScale or fault report.
func (c TrainConfig) Plan(features, classes int) (PlanConfig, error) {
	c = c.WithDefaults()
	model, err := ml.New(c.Model, classes)
	if err != nil {
		return PlanConfig{}, err
	}
	opt, err := ml.NewOptimizer(c.Optimizer, c.LearningRate)
	if err != nil {
		return PlanConfig{}, err
	}
	if sgd, ok := opt.(*ml.SGD); ok {
		if c.Decay != 0 {
			sgd.Decay = c.Decay
		}
		sgd.L2 = c.L2
	}
	policy, err := shuffle.ParseFailurePolicy(c.OnCorrupt)
	if err != nil {
		return PlanConfig{}, err
	}
	return PlanConfig{
		Shuffle:        c.Strategy,
		BufferFraction: c.BufferFraction,
		DoubleBuffer:   c.DoubleBuffer,
		Seed:           c.Seed,
		Profile:        c.Explain,
		Resilience: shuffle.Resilience{
			Retry:           storage.RetryPolicy{MaxAttempts: c.Retries + 1, Backoff: c.RetryBackoff, Seed: c.Seed},
			OnCorrupt:       policy,
			MaxSkipFraction: c.MaxSkipFraction,
		},
		SGD: SGDConfig{
			Model:       model,
			Opt:         opt,
			Features:    features,
			Epochs:      c.Epochs,
			BatchSize:   c.BatchSize,
			InitWeights: core.InitWeights(model, features, c.Seed),
			Obs:         c.Metrics,
			Diag:        c.Diag,
			Feed:        c.Feed,
			RunName:     c.RunName,
			Ctx:         c.Ctx,
			Events:      c.Events,
			Trace:       c.Trace,
		},
	}, nil
}
