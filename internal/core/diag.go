package core

import "math"

// This file implements convergence diagnostics: per-epoch gradient-norm,
// update-norm, and loss-delta tracking with a plateau/divergence detector.
// The signals mirror what the paper's evaluation reads off its convergence
// plots (loss trajectory per epoch, Sec. 6) and what "Random Shuffling
// Beats SGD after Finite Epochs" analyzes in terms of gradient-norm decay;
// the detector turns them into an actionable verdict a live scraper (or
// Corgi²-style tuner) can react to mid-run.
//
// Diagnostics are strictly read-only observers of the training state:
// enabling them never changes the weight trajectory or the loss trace.

// Verdict classifies a run's convergence health.
type Verdict string

const (
	// VerdictConverging: the loss is still improving.
	VerdictConverging Verdict = "converging"
	// VerdictPlateau: the relative loss improvement stayed below
	// diagPlateauTol for diagWindow epochs.
	VerdictPlateau Verdict = "plateau"
	// VerdictDiverging: the loss rose (or went non-finite) for diagWindow
	// epochs.
	VerdictDiverging Verdict = "diverging"
	// VerdictWarmup: not enough epochs yet to judge.
	VerdictWarmup Verdict = "warmup"
)

const (
	// diagWindow is the number of consecutive qualifying epochs before a
	// plateau or divergence verdict fires.
	diagWindow = 3
	// diagPlateauTol is the relative loss-improvement threshold below which
	// an epoch counts toward a plateau.
	diagPlateauTol = 1e-3
)

// EpochDiag is one epoch's convergence diagnostics.
type EpochDiag struct {
	// Epoch is 1-based.
	Epoch int `json:"epoch"`
	// GradNorm is the RMS per-optimizer-step gradient L2 norm.
	GradNorm float64 `json:"grad_norm"`
	// UpdateNorm is the L2 norm of the epoch's total weight change.
	UpdateNorm float64 `json:"update_norm"`
	// LossDelta is the previous epoch's loss minus this epoch's (positive
	// = improving; 0 for the first epoch).
	LossDelta float64 `json:"loss_delta"`
	// Verdict is the detector's state after this epoch.
	Verdict Verdict `json:"verdict"`
}

// DiagTracker folds per-epoch losses into a running verdict. It is shared
// by core.Run and the executor's SGD operator.
type DiagTracker struct {
	prevLoss float64
	epochs   int
	flatRun  int // consecutive epochs under the plateau tolerance
	riseRun  int // consecutive epochs with rising (or non-finite) loss
}

// Observe ingests one epoch's loss and returns the loss delta and the
// verdict after this epoch.
func (d *DiagTracker) Observe(loss float64) (lossDelta float64, v Verdict) {
	d.epochs++
	if d.epochs == 1 {
		d.prevLoss = loss
		if !isFinite(loss) {
			d.riseRun = diagWindow // non-finite from the start
			return 0, VerdictDiverging
		}
		return 0, VerdictWarmup
	}
	lossDelta = d.prevLoss - loss

	if !isFinite(loss) || loss > d.prevLoss {
		d.riseRun++
	} else {
		d.riseRun = 0
	}
	scale := math.Abs(d.prevLoss)
	if scale < 1e-12 {
		scale = 1e-12
	}
	if isFinite(loss) && math.Abs(lossDelta)/scale < diagPlateauTol {
		d.flatRun++
	} else if isFinite(loss) {
		d.flatRun = 0
	}
	d.prevLoss = loss

	switch {
	case d.riseRun >= diagWindow:
		v = VerdictDiverging
	case d.flatRun >= diagWindow:
		v = VerdictPlateau
	default:
		v = VerdictConverging
	}
	return lossDelta, v
}

// isFinite reports whether f is neither NaN nor ±Inf.
func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// L2Delta returns ||a-b||₂ (slices must be equal length).
func L2Delta(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
