// Package core ties the system together: it runs SGD training over a
// shuffling strategy with simulated-time accounting, and implements the
// paper's analytical tools — the block-variance factor h_D and the
// Theorem 1 convergence bound.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
	"corgipile/internal/shuffle"
)

// RunConfig describes one training run: the learner and everything the
// epoch driver attaches to it. Run and executor.SGDOp take the same struct
// (executor.SGDConfig is an alias).
type RunConfig struct {
	// Strategy streams epochs of training tuples. Run requires it; under
	// the executor the child operator is the tuple source and it must be nil.
	Strategy shuffle.Strategy
	// Model and Optimizer define the learner.
	Model ml.Model
	Opt   ml.Optimizer
	// Features is the dataset dimensionality (sizes the weight vector).
	Features int
	// Epochs is the number of passes (the paper's S).
	Epochs int
	// BatchSize selects per-tuple (<=1) or mini-batch SGD.
	BatchSize int
	// Procs is read by nothing; it stays because benchmark/ladder.go sets it.
	Procs int
	// Clock, when non-nil, receives per-tuple gradient-compute charges and
	// is sampled for per-epoch simulated timestamps.
	Clock *iosim.Clock
	// TrainEval and TestEval, when non-nil, are evaluated after each epoch
	// (at no simulated cost — evaluation is out-of-band in the paper too).
	TrainEval *data.Dataset
	TestEval  *data.Dataset
	// InitWeights, when non-nil, initializes the weight vector (needed for
	// the MLP); otherwise weights start at zero.
	InitWeights func(w []float64)
	// Seed is read by nothing: weight initialization takes its seed through
	// InitWeights and the tuple source is seeded where it is built.
	// The field stays because benchmark/ladder.go sets it.
	Seed int64
	// ComputeScale multiplies the per-tuple gradient compute cost charged
	// to the clock; it models systems with heavier per-tuple work (MADlib's
	// extra statistics, PyTorch's per-call interpreter overhead). Zero
	// means 1.
	ComputeScale float64
	// Obs, when non-nil, receives epoch durations and training counters;
	// Result.Breakdown then carries one cross-layer metrics row per epoch.
	// Attach the same registry to the device (Device.WithObs) and strategy
	// (shuffle.Options.Obs) to get the full I/O + shuffle + compute
	// decomposition.
	Obs *obs.Registry
	// Diag enables the convergence diagnostics: per-epoch
	// gradient-norm, update-norm and loss-delta tracking plus the
	// plateau/divergence detector. Result.Diag and Result.Verdict carry
	// the outcome. Diagnostics are read-only: the loss trace and weight
	// trajectory are bit-for-bit identical with or without them.
	Diag bool
	// Feed, when non-nil, receives one live RunStatus update per epoch
	// (plus a final one with Done set) — the telemetry server's /run data.
	Feed *obs.RunFeed
	// RunName labels feed updates (free-form, e.g. "corgitrain svm/higgs").
	RunName string
	// Faults, when non-nil, is the fault report the tuple source's resilient
	// wrapper accumulates into (shuffle.Options.FaultReport; under
	// executor.BuildSGDPlan the wrapper fills this report, or a fresh one
	// when nil); its summary is copied to Result.Faults after every
	// completed epoch.
	Faults *shuffle.FaultReport
	// Ctx, when non-nil, cancels the run: the driver checks it between
	// epochs and every 256 tuples inside an epoch, then returns the
	// context's error, wrapped. A nil Ctx never cancels and adds no
	// per-tuple work.
	Ctx context.Context
	// Events, when non-nil, receives one wall-clock "epoch" span record per
	// epoch, stamped with Trace — the introspection plane's timeline. A nil
	// Events adds no work and never touches the clock, and attaching one
	// never changes the Obs registry's JSONL trace (the rings are separate;
	// TestTracePurity pins this).
	Events *obs.EventLog
	// Trace is the request-scoped trace ID stamped on emitted span records.
	Trace string
}

// EpochPoint records the state after one epoch — one x-axis point of the
// paper's convergence plots.
type EpochPoint struct {
	// Epoch is the 1-based epoch number.
	Epoch int
	// Seconds is the simulated elapsed time since the start of the run,
	// including any strategy preprocessing (e.g. Shuffle Once's full sort).
	Seconds float64
	// AvgLoss is the mean streaming loss observed during the epoch.
	AvgLoss float64
	// TrainAcc and TestAcc are accuracies on the evaluation sets (or R²
	// for regression datasets); NaN-free zero when no set was provided.
	TrainAcc float64
	TestAcc  float64
	// Tuples is the number of examples consumed this epoch.
	Tuples int
}

// Result is a completed training run.
type Result struct {
	// Points holds one entry per epoch.
	Points []EpochPoint
	// W is the final weight vector.
	W []float64
	// Breakdown holds one cross-layer metrics row per epoch when an
	// obs.Registry was attached via RunConfig.Obs (nil otherwise).
	Breakdown []obs.EpochMetrics
	// Faults summarizes retry/quarantine/crash activity when a fault report
	// was attached via RunConfig.Faults (zero value otherwise).
	Faults shuffle.FaultSummary
	// Diag holds one diagnostics row per epoch and Verdict the detector's
	// final state when diagnostics were enabled via RunConfig.Diag
	// (nil / empty otherwise).
	Diag    []EpochDiag
	Verdict Verdict
	// Plan holds the executed plan's per-operator profile when the plan was
	// built with PlanConfig.Profile (TrainConfig.Explain, EXPLAIN ANALYZE);
	// nil otherwise.
	Plan *obs.PlanStats
}

// diverged returns the error that fails a run whose epoch ended on a
// non-finite mean loss or weight, naming the epoch (1-based, as the epoch
// table prints it) and the first non-finite coordinate of w, if any. A
// diverged model is never installed (DESIGN.md "A diverged TRAIN installs
// nothing"). The check is O(len(w)) once per epoch.
func diverged(epoch int, loss float64, w []float64) error {
	for i, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: epoch %d diverged: loss %v, w[%d] = %v", epoch, loss, i, v)
		}
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return fmt.Errorf("core: epoch %d diverged: loss %v, every weight finite", epoch, loss)
	}
	return nil
}

// Final returns the last epoch point (zero value for an empty run).
func (r *Result) Final() EpochPoint {
	if len(r.Points) == 0 {
		return EpochPoint{}
	}
	return r.Points[len(r.Points)-1]
}

// Loop is the epoch driver: the one training loop behind both Run (tuples
// from a shuffle.Strategy) and executor.SGDOp (tuples from a child operator).
// It owns the weights, the trainer and its per-tuple clock charge, the
// per-epoch bookkeeping (cancellation, timing, breakdown, evaluation,
// diagnostics, the live status feed) and the accumulated Result. The caller
// owns the tuple source: it opens or re-scans it, then hands Step the
// epoch's stream.
type Loop struct {
	cfg     RunConfig
	trainer *ml.Trainer
	res     Result

	start     time.Duration // clock at Reset
	lastNow   time.Duration // clock when the previous epoch ended
	before    obs.Snapshot  // registry when the previous epoch ended
	wallStart time.Time
	tuples    int64
	gradCost  time.Duration // gradient time charged so far this epoch
	tracker   *DiagTracker
	wPrev     []float64
}

// NewLoop returns a driver for cfg. cfg.Strategy is not used: the stream
// comes through Step. Call Reset before the first Step.
func NewLoop(cfg RunConfig) (*Loop, error) {
	if cfg.Model == nil || cfg.Opt == nil {
		return nil, fmt.Errorf("core: Model and Opt are required")
	}
	l := &Loop{cfg: cfg, trainer: ml.NewTrainer(cfg.Model, cfg.Opt, cfg.BatchSize)}
	l.res.W = make([]float64, cfg.Model.Dim(cfg.Features))
	l.trainer.Obs = cfg.Obs
	l.trainer.TrackGradNorm = cfg.Diag
	if cfg.Clock != nil || cfg.Obs != nil {
		scale := cfg.ComputeScale
		if scale == 0 {
			scale = 1
		}
		l.trainer.OnTuple = func(t *data.Tuple) {
			cost := time.Duration(float64(ml.GradCost(t.NNZ())) * scale)
			if cfg.Clock != nil {
				cfg.Clock.Advance(cost)
			}
			l.gradCost += cost
		}
	}
	if cfg.Diag {
		l.wPrev = make([]float64, len(l.res.W))
	}
	return l, nil
}

// Reset starts a run: fresh weights and optimizer state, an empty result,
// and the clock, registry and wall baselines taken now — so whatever the
// source charges while it opens (Epoch Shuffle's first full shuffle) lands
// in epoch 1's row, and work between epochs in the following epoch's.
func (l *Loop) Reset() {
	cfg := &l.cfg
	w := l.res.W
	clear(w)
	if cfg.InitWeights != nil {
		cfg.InitWeights(w)
	}
	cfg.Opt.Reset(len(w))
	l.res = Result{W: w}
	if cfg.Clock != nil {
		l.start = cfg.Clock.Now()
		l.lastNow = l.start
	}
	if cfg.Obs != nil {
		l.before = cfg.Obs.Snapshot()
	}
	if cfg.Diag {
		l.tracker = &DiagTracker{}
	}
	l.wallStart = time.Now()
	l.tuples = 0
}

// Step trains one epoch over next and records it. streamErr is asked, once
// the stream has ended, whether it ended on an error; such an error is
// returned wrapped as "core: epoch N stream: ..." with the 0-based epoch, so
// every tuple source words a storage failure the same way. An epoch that
// ends on a non-finite mean loss or weight fails the run (diverged). On
// these errors (or a canceled Ctx) the epoch is not recorded.
func (l *Loop) Step(next func() (*data.Tuple, bool), streamErr func() error) (EpochPoint, error) {
	cfg := &l.cfg
	w := l.res.W
	epoch := len(l.res.Points) + 1
	if err := l.canceled(epoch); err != nil {
		return EpochPoint{}, err
	}
	if l.tracker != nil {
		copy(l.wPrev, w)
	}
	if cfg.Ctx != nil {
		// Amortize ctx.Err's lock over the hot loop; a cancel still
		// lands within a few hundred tuples of gradient work.
		src, sinceCheck := next, 0
		next = func() (*data.Tuple, bool) {
			if sinceCheck++; sinceCheck >= 256 {
				sinceCheck = 0
				if cfg.Ctx.Err() != nil {
					return nil, false
				}
			}
			return src()
		}
	}
	start := cfg.Obs.Now()
	esp := cfg.Events.StartSpan(cfg.Trace, obs.EvSpanEpoch)
	stats := l.trainer.RunEpoch(w, next)
	if stats.Tuples > 0 {
		// Charged once per epoch, canceled ones included, like sgd.tuples.
		cfg.Obs.AddDuration(obs.SGDGradNanos, l.gradCost)
		l.gradCost = 0
	}
	epochDur := max(cfg.Obs.Now()-start, 0)
	cfg.Obs.Observe(obs.SpanEpoch, epochDur)
	esp.End()
	if err := l.canceled(epoch); err != nil {
		return EpochPoint{}, err
	}
	if err := streamErr(); err != nil {
		return EpochPoint{}, fmt.Errorf("core: epoch %d stream: %w", epoch-1, err)
	}
	if err := diverged(epoch, stats.AvgLoss, w); err != nil {
		return EpochPoint{}, err
	}
	p := EpochPoint{Epoch: epoch, AvgLoss: stats.AvgLoss, Tuples: stats.Tuples}
	if cfg.Clock != nil {
		p.Seconds = (cfg.Clock.Now() - l.start).Seconds()
	}
	if cfg.TrainEval != nil {
		p.TrainAcc = evalMetric(cfg.Model, w, cfg.TrainEval)
	}
	if cfg.TestEval != nil {
		p.TestAcc = evalMetric(cfg.Model, w, cfg.TestEval)
	}
	l.res.Points = append(l.res.Points, p)
	if cfg.Obs != nil {
		epochSecs := epochDur.Seconds()
		if cfg.Clock != nil {
			now := cfg.Clock.Now()
			epochSecs = (now - l.lastNow).Seconds()
			l.lastNow = now
		}
		after := cfg.Obs.Snapshot()
		m := obs.EpochFromDelta(epoch, epochSecs, stats.AvgLoss, after.DeltaFrom(l.before))
		l.before = after
		cfg.Obs.EmitEpoch(m)
		l.res.Breakdown = append(l.res.Breakdown, m)
	}
	var d EpochDiag
	if l.tracker != nil {
		delta, verdict := l.tracker.Observe(stats.AvgLoss)
		d = EpochDiag{
			Epoch:      epoch,
			GradNorm:   stats.GradNorm(),
			UpdateNorm: L2Delta(w, l.wPrev),
			LossDelta:  delta,
			Verdict:    verdict,
		}
		l.res.Diag = append(l.res.Diag, d)
		l.res.Verdict = verdict
		EmitDiag(cfg.Obs, d)
	}
	l.res.Faults = cfg.Faults.Summary()
	l.tuples += int64(stats.Tuples)
	if cfg.Feed != nil {
		st := obs.RunStatus{
			Run:         cfg.RunName,
			Epoch:       epoch,
			Epochs:      cfg.Epochs,
			Loss:        p.AvgLoss,
			TrainAcc:    p.TrainAcc,
			GradNorm:    d.GradNorm,
			UpdateNorm:  d.UpdateNorm,
			LossDelta:   d.LossDelta,
			Verdict:     string(d.Verdict),
			Tuples:      l.tuples,
			SimSeconds:  p.Seconds,
			WallSeconds: time.Since(l.wallStart).Seconds(),
			Done:        epoch == cfg.Epochs,
		}
		// Fold in the shuffle-buffer gauges and fault counters from the
		// snapshot that closed this epoch's breakdown row.
		st.FillFrom(l.before)
		cfg.Feed.Publish(st)
	}
	return p, nil
}

// canceled returns the run's cancellation error once Ctx is done (a nil
// Ctx never cancels).
func (l *Loop) canceled(epoch int) error {
	if l.cfg.Ctx == nil {
		return nil
	}
	if err := l.cfg.Ctx.Err(); err != nil {
		return fmt.Errorf("core: train canceled at epoch %d: %w", epoch, err)
	}
	return nil
}

// Result returns the run so far: the weights, one Points / Breakdown / Diag
// row per completed epoch, and the latest Verdict and Faults summary. The
// driver keeps writing to it until the run ends.
func (l *Loop) Result() *Result { return &l.res }

// Run executes the configured training over cfg.Strategy and returns its
// convergence trace. Every TRAIN in the module runs executor.BuildSGDPlan;
// Run stays as this package's test driver (its goldens cannot import
// executor) and as the benchmark ladder's core.run rung.
func Run(cfg RunConfig) (*Result, error) {
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("core: Strategy, Model and Opt are required")
	}
	l, err := NewLoop(cfg)
	if err != nil {
		return nil, err
	}
	l.Reset()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		it, err := cfg.Strategy.StartEpoch(epoch)
		if err != nil {
			return nil, fmt.Errorf("core: epoch %d: %w", epoch, err)
		}
		if _, err := l.Step(it.Next, it.Err); err != nil {
			return nil, err
		}
	}
	return l.Result(), nil
}

// evalMetric returns accuracy for classification datasets and R² for
// regression datasets.
func evalMetric(m ml.Model, w []float64, ds *data.Dataset) float64 {
	if ds.Task == data.TaskRegression {
		return ml.R2(m, w, ds)
	}
	return ml.Accuracy(m, w, ds)
}

// MLPInit returns an InitWeights function for an MLP model.
func MLPInit(m ml.MLP, features int, seed int64) func(w []float64) {
	return func(w []float64) {
		m.InitWeights(w, features, rand.New(rand.NewSource(seed)))
	}
}

// InitWeights returns the RunConfig.InitWeights function m needs, seeded by
// seed: the MLP's hidden-layer weights and the factorization machine's
// factors start random (from zero neither ever leaves its symmetric or
// linear starting point); every other model returns nil and starts at zero.
func InitWeights(m ml.Model, features int, seed int64) func([]float64) {
	switch m := m.(type) {
	case ml.MLP:
		return MLPInit(m, features, seed)
	case ml.FactorizationMachine:
		return func(w []float64) {
			m.InitWeights(w, features, 0.01, rand.New(rand.NewSource(seed)))
		}
	}
	return nil
}
