package executor

import (
	"fmt"

	"corgipile/internal/core"
	"corgipile/internal/data"
	"corgipile/internal/obs"
)

// EpochRow is the SGD operator's output: one row of training metrics per
// epoch, matching the paper's "CorgiPile outputs various metrics after each
// epoch, such as training loss, accuracy, and execution time". It is the
// epoch driver's record.
type EpochRow = core.EpochPoint

// SGDConfig configures an SGD operator: the epoch driver's run config, with
// Strategy left nil (the child operator is the tuple source).
type SGDConfig = core.RunConfig

// SGDOp drives multi-epoch SGD over its child pipeline — the paper's third
// new physical operator. Each call to NextEpoch consumes one full pass from
// the child through the shared epoch driver (core.Loop), and re-scans the
// child for the next epoch via the ReScan mechanism. The driver owns the
// weights, the trainer and every per-epoch record; the operator owns the
// child and the plan profile.
type SGDOp struct {
	child Operator
	loop  *core.Loop
	feed  *obs.RunFeed
	// Epochs is the configured number of passes.
	Epochs int
	// Prof, when the plan was built with PlanConfig.Profile, accumulates
	// per-operator runtime statistics (nil otherwise); Plan() snapshots it.
	Prof *PlanProfile
}

// NewSGD returns an SGD operator over the child pipeline.
func NewSGD(child Operator, cfg SGDConfig) (*SGDOp, error) {
	if cfg.Strategy != nil {
		return nil, fmt.Errorf("executor: SGD reads its child operator; SGDConfig.Strategy must be nil")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	loop, err := core.NewLoop(cfg)
	if err != nil {
		return nil, fmt.Errorf("executor: SGD: %w", err)
	}
	return &SGDOp{child: child, loop: loop, feed: cfg.Feed, Epochs: cfg.Epochs}, nil
}

// Init implements the operator contract for the training pipeline. A
// second Init starts the run over: fresh weights, empty result.
func (op *SGDOp) Init() error {
	// The profile and the driver's baselines are taken before the child
	// initializes so that what it charges while opening (Epoch Shuffle's
	// first full shuffle) is attributed to the run rather than lost before
	// the window opens.
	op.Prof.Start()
	op.loop.Reset()
	return op.child.Init()
}

// NextEpoch runs one epoch and returns its metrics row; ok=false when the
// configured number of epochs has completed.
func (op *SGDOp) NextEpoch() (EpochRow, bool, error) {
	done := len(op.Result().Points)
	if done >= op.Epochs {
		return EpochRow{}, false, nil
	}
	if done > 0 {
		// Reshuffle and reread via the re-scan mechanism.
		if err := op.child.ReScan(); err != nil {
			return EpochRow{}, false, err
		}
	}
	var childErr error
	row, err := op.loop.Step(func() (*data.Tuple, bool) {
		t, ok, err := op.child.Next()
		if err != nil {
			childErr = err
			return nil, false
		}
		return t, ok
	}, func() error { return childErr })
	if err != nil {
		return EpochRow{}, false, err
	}
	op.Prof.EndEpoch(row.Tuples)
	if op.Prof != nil && op.feed != nil {
		op.feed.PublishPlan(op.Prof.Snapshot())
	}
	return row, true, nil
}

// Run drives every configured epoch and returns all metric rows.
func (op *SGDOp) Run() ([]EpochRow, error) {
	if err := op.Init(); err != nil {
		return nil, err
	}
	defer op.Close()
	for {
		if _, ok, err := op.NextEpoch(); err != nil || !ok {
			return op.Result().Points, err
		}
	}
}

// Close releases the pipeline.
func (op *SGDOp) Close() error { return op.child.Close() }

// Result returns the driver's live result: the weight vector (for the
// catalog to store), one Points / Breakdown / Diag row per completed epoch,
// and the latest Verdict and Faults summary.
func (op *SGDOp) Result() *core.Result { return op.loop.Result() }

// Plan returns a snapshot of the executed plan's per-operator profile, or
// nil when the plan was built without PlanConfig.Profile.
func (op *SGDOp) Plan() *obs.PlanStats {
	if op.Prof == nil {
		return nil
	}
	return op.Prof.Snapshot()
}

// RunResult drives every configured epoch like Run and returns the driver's
// result, with the executed plan attached when the plan was profiled. It is
// how every TRAIN in the module runs.
func (op *SGDOp) RunResult() (*core.Result, error) {
	if _, err := op.Run(); err != nil {
		return nil, err
	}
	res := op.Result()
	res.Plan = op.Plan()
	return res, nil
}
