package ml

import (
	"math"
	"unsafe"

	"corgipile/internal/data"
	"corgipile/internal/obs"
)

// Stream yields training tuples one at a time; ok=false ends the epoch.
// Strategies in internal/shuffle and operators in internal/executor produce
// Streams. A returned tuple is good until the next call: the producer may
// reuse the Tuple it points to. The feature slices it holds stay valid, and
// unchanged, for the rest of the epoch.
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

// Trainer runs SGD-style epochs of a Model with an Optimizer on the calling
// goroutine. It owns the scratch state (a Workspace and a gradAccumulator)
// that makes per-tuple updates allocation-free and deduplicates repeated
// gradient indices within a mini-batch so that Adam's per-coordinate state
// is touched once per batch.
type Trainer struct {
	Model Model
	Opt   Optimizer
	// BatchSize is the mini-batch size; 0 or 1 gives per-tuple updates
	// (the paper's "standard SGD").
	BatchSize int
	// Procs is read by nothing; it stays because benchmark/ladder.go sets it.
	Procs int
	// OnTuple, when non-nil, is invoked for every consumed tuple — the hook
	// the benchmark harness uses to charge simulated gradient-compute time.
	OnTuple func(t *data.Tuple)
	// Obs, when non-nil, counts consumed tuples and optimizer steps under
	// the obs.SGD* metric names and records the epoch's mean loss gauge,
	// once per epoch as RunEpoch returns.
	Obs *obs.Registry
	// TrackGradNorm enables per-step gradient-norm accumulation
	// (EpochStats.GradSqSum) for the convergence diagnostics. Tracking is
	// read-only — it never perturbs the update sequence, so the loss trace
	// and weight trajectory are bit-for-bit identical either way.
	TrackGradNorm bool

	ws    Workspace
	dest  gradDest // (gi, gv) at batch 1, acc for a mini-batch
	acc   gradAccumulator
	batch []data.Tuple // headers of the tuples waiting for gradBatch
}

// maxGradBatch bounds the tuples one gradBatch call takes, and with it the
// Workspace's batch scratch; a larger mini-batch goes in several calls.
const maxGradBatch = 256

// NewTrainer returns a trainer for the model/optimizer pair.
func NewTrainer(m Model, opt Optimizer, batchSize int) *Trainer {
	return &Trainer{Model: m, Opt: opt, BatchSize: batchSize}
}

// Close does nothing; it stays because benchmark/ladder.go calls it.
func (tr *Trainer) Close() {}

// RunEpoch consumes the stream, applying updates to w, and returns epoch
// statistics. With BatchSize > 1 the gradients of each batch are averaged
// before a single optimizer step, matching mini-batch SGD; a final partial
// batch is still applied.
//
// Every tuple reaches the model's gradBatch; OnTuple sees each as it
// arrives. At batch 1 the step takes the tuple's raw (gi, gv) entries, one
// entry at a time: summing them first, as a mini-batch's accumulator does,
// would change bits where a gradient repeats a coordinate (DESIGN.md "One
// gradient method"). A mini-batch reaches gradBatch a batch (or
// maxGradBatch tuples) at a time.
func (tr *Trainer) RunEpoch(w []float64, next Stream) EpochStats {
	batch := max(tr.BatchSize, 1)
	d := &tr.dest
	*d = gradDest{gi: d.gi[:0], gv: d.gv[:0]}
	if batch > 1 {
		tr.acc.Reset(len(w))
		d.acc = &tr.acc
	}

	var stats EpochStats
	var lossSum float64
	count := 0
	for {
		t, ok := next()
		if !ok {
			break
		}
		if tr.OnTuple != nil {
			tr.OnTuple(t)
		}
		stats.Tuples++
		if batch == 1 {
			// t itself is the batch: gradBatch is done with it before the
			// stream's next call.
			lossSum += tr.Model.gradBatch(&tr.ws, w, unsafe.Slice(t, 1), d)[0]
			tr.step(w, d.gi, d.gv, &stats)
			d.gi, d.gv = d.gi[:0], d.gv[:0]
			continue
		}
		// The stream may overwrite *t on its next call.
		tr.batch = append(tr.batch, *t)
		count++
		if count == batch || len(tr.batch) == maxGradBatch {
			lossSum = tr.grad(w, lossSum)
		}
		if count == batch {
			tr.stepBatch(w, count, &stats)
			count = 0
		}
	}
	if count > 0 {
		if len(tr.batch) > 0 {
			lossSum = tr.grad(w, lossSum)
		}
		tr.stepBatch(w, count, &stats)
	}
	tr.Opt.EndEpoch()

	if stats.Tuples > 0 {
		stats.AvgLoss = lossSum / float64(stats.Tuples)
	}
	if tr.Obs != nil {
		tr.Obs.Add(obs.SGDTuples, int64(stats.Tuples))
		if stats.Steps > 0 {
			// An epoch that took no step leaves the counter absent.
			tr.Obs.Add(obs.SGDBatches, int64(stats.Steps))
		}
		tr.Obs.SetGauge(obs.SGDLoss, stats.AvgLoss)
	}
	return stats
}

// grad adds the gradients of the waiting tuples, tr.batch, into the
// accumulator, empties tr.batch and returns lossSum plus their losses,
// added one at a time in stream order.
func (tr *Trainer) grad(w []float64, lossSum float64) float64 {
	for _, loss := range tr.Model.gradBatch(&tr.ws, w, tr.batch, &tr.dest) {
		lossSum += loss
	}
	tr.batch = tr.batch[:0]
	return lossSum
}

// stepBatch steps on the average of the count gradients in the accumulator
// and clears it.
func (tr *Trainer) stepBatch(w []float64, count int, stats *EpochStats) {
	gi, gv := tr.acc.Gather(1 / float64(count))
	tr.step(w, gi, gv, stats)
	tr.acc.Clear()
}

// step takes one optimizer step on the gradient (gi, gv).
func (tr *Trainer) step(w []float64, gi []int32, gv []float64, stats *EpochStats) {
	if tr.TrackGradNorm {
		stats.GradSqSum += sqNorm(gv)
	}
	tr.Opt.Step(w, gi, gv)
	stats.Steps++
}

// sqNorm returns the squared L2 norm of a gradient value slice.
func sqNorm(gv []float64) float64 {
	var s float64
	for _, v := range gv {
		s += v * v
	}
	return s
}
