package ml

import (
	"math"
	"runtime"

	"corgipile/internal/data"
	"corgipile/internal/obs"
)

// Stream yields training tuples one at a time; ok=false ends the epoch.
// Strategies in internal/shuffle and operators in internal/executor produce
// Streams.
type Stream func() (t *data.Tuple, ok bool)

// SliceStream returns a Stream over the tuples of ds in storage order.
func SliceStream(ds *data.Dataset) Stream {
	i := 0
	return func() (*data.Tuple, bool) {
		if i >= ds.Len() {
			return nil, false
		}
		t := ds.At(i)
		i++
		return t, true
	}
}

// EpochStats summarizes one training epoch.
type EpochStats struct {
	// Tuples is the number of examples consumed.
	Tuples int
	// AvgLoss is the mean per-example loss observed while training (i.e.
	// evaluated at the then-current weights, the usual streaming metric).
	AvgLoss float64
	// Steps is the number of optimizer steps taken.
	Steps int
	// GradSqSum is the sum over optimizer steps of the squared L2 norm of
	// the step's (batch-averaged) gradient. Populated only when the
	// trainer's TrackGradNorm is set; sqrt(GradSqSum/Steps) is the RMS
	// per-step gradient norm the convergence diagnostics report.
	GradSqSum float64
}

// GradNorm returns the RMS per-step gradient norm (0 without tracking).
func (s EpochStats) GradNorm() float64 {
	if s.Steps == 0 {
		return 0
	}
	return math.Sqrt(s.GradSqSum / float64(s.Steps))
}

// Trainer runs SGD-style epochs of a Model with an Optimizer. It owns the
// scratch state (a Workspace, a gradAccumulator, and — for parallel
// mini-batches — a batchEngine) that makes per-tuple updates allocation-free
// and deduplicates repeated gradient indices within a mini-batch so that
// Adam's per-coordinate state is touched once per batch.
type Trainer struct {
	Model Model
	Opt   Optimizer
	// BatchSize is the mini-batch size; 0 or 1 gives per-tuple updates
	// (the paper's "standard SGD").
	BatchSize int
	// Procs is the number of gradient worker goroutines used for mini-batch
	// steps (BatchSize > 1): 1 is single-threaded, 0 selects GOMAXPROCS.
	// The loss trace and weight trajectory are bit-for-bit identical at
	// every Procs setting (see batchEngine). Per-tuple SGD ignores it.
	Procs int
	// OnTuple, when non-nil, is invoked for every consumed tuple — the hook
	// the benchmark harness uses to charge simulated gradient-compute time.
	OnTuple func(t *data.Tuple)
	// Obs, when non-nil, counts consumed tuples and optimizer steps under
	// the obs.SGD* metric names and records the epoch's mean loss gauge.
	Obs *obs.Registry
	// TrackGradNorm enables per-step gradient-norm accumulation
	// (EpochStats.GradSqSum) for the convergence diagnostics. Tracking is
	// read-only — it never perturbs the update sequence, so the loss trace
	// and weight trajectory are bit-for-bit identical either way.
	TrackGradNorm bool

	ws Workspace
	gi []int32
	gv []float64

	acc    gradAccumulator
	engine *batchEngine
}

// NewTrainer returns a trainer for the model/optimizer pair.
func NewTrainer(m Model, opt Optimizer, batchSize int) *Trainer {
	return &Trainer{Model: m, Opt: opt, BatchSize: batchSize}
}

// Close releases the trainer's worker pool, if one was started. The trainer
// must not run further epochs afterwards.
func (tr *Trainer) Close() {
	if tr.engine != nil {
		tr.engine.Close()
		tr.engine = nil
	}
}

// RunEpoch consumes the stream, applying updates to w, and returns epoch
// statistics. With BatchSize > 1 the gradients of each batch are averaged
// before a single optimizer step, matching mini-batch SGD; a final partial
// batch is still applied. Batch gradients are computed by the trainer's
// batchEngine across Procs workers.
func (tr *Trainer) RunEpoch(w []float64, next Stream) EpochStats {
	batch := tr.BatchSize
	if batch < 1 {
		batch = 1
	}

	var stats EpochStats
	var lossSum float64

	if batch == 1 {
		// Per-tuple SGD: allocation-free via the workspace path.
		for {
			t, ok := next()
			if !ok {
				break
			}
			if tr.OnTuple != nil {
				tr.OnTuple(t)
			}
			stats.Tuples++
			tr.gi = tr.gi[:0]
			tr.gv = tr.gv[:0]
			var loss float64
			loss, tr.gi, tr.gv = GradWS(tr.Model, &tr.ws, w, t, tr.gi, tr.gv)
			lossSum += loss
			if tr.TrackGradNorm {
				stats.GradSqSum += sqNorm(tr.gv)
			}
			tr.Opt.Step(w, tr.gi, tr.gv)
			stats.Steps++
			tr.Obs.Inc(obs.SGDBatches)
		}
	} else {
		// Mini-batch SGD: gather shallow tuple copies (feature storage is
		// dataset-owned and stable), then one engine step per full batch.
		tr.acc.Reset(len(w))
		if tr.engine == nil || tr.engine.Procs() != tr.procs() {
			if tr.engine != nil {
				tr.engine.Close()
			}
			tr.engine = newBatchEngine(tr.Model, tr.procs())
		}
		buf := tr.ws.batch[:0]
		flush := func() {
			if len(buf) == 0 {
				return
			}
			count := tr.engine.Accumulate(w, buf, &tr.acc, &lossSum)
			if tr.TrackGradNorm && count > 0 {
				// Gather is repeatable until Clear, so peeking at the
				// averaged batch gradient does not disturb the step below.
				_, gv := tr.acc.Gather(1 / float64(count))
				stats.GradSqSum += sqNorm(gv)
			}
			tr.acc.Step(tr.Opt, w, count)
			stats.Steps++
			tr.Obs.Inc(obs.SGDBatches)
			buf = buf[:0]
		}
		for {
			t, ok := next()
			if !ok {
				break
			}
			if tr.OnTuple != nil {
				tr.OnTuple(t)
			}
			stats.Tuples++
			buf = append(buf, *t)
			if len(buf) >= batch {
				flush()
			}
		}
		flush()
		tr.ws.batch = buf[:0]
	}
	tr.Opt.EndEpoch()

	if stats.Tuples > 0 {
		stats.AvgLoss = lossSum / float64(stats.Tuples)
	}
	if tr.Obs != nil {
		tr.Obs.Add(obs.SGDTuples, int64(stats.Tuples))
		tr.Obs.SetGauge(obs.SGDLoss, stats.AvgLoss)
	}
	return stats
}

// sqNorm returns the squared L2 norm of a gradient value slice.
func sqNorm(gv []float64) float64 {
	var s float64
	for _, v := range gv {
		s += v * v
	}
	return s
}

// procs resolves the Procs setting: 0 means GOMAXPROCS, negative means 1.
func (tr *Trainer) procs() int {
	switch {
	case tr.Procs == 0:
		return runtime.GOMAXPROCS(0)
	case tr.Procs < 0:
		return 1
	}
	return tr.Procs
}
