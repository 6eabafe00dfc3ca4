package ml

import (
	"fmt"
	"math"
)

// Optimizer applies sparse gradient updates to a weight vector.
type Optimizer interface {
	// Name identifies the optimizer, e.g. "sgd".
	Name() string
	// Reset prepares internal state for a weight vector of dimension dim
	// and restores the initial learning rate.
	Reset(dim int)
	// Step applies one update for the sparse gradient (gi, gv):
	// conceptually w ← w − η·g. Indices may repeat; repeated entries are
	// summed.
	Step(w []float64, gi []int32, gv []float64)
	// EndEpoch signals an epoch boundary (for learning-rate decay).
	EndEpoch()
	// LR reports the current learning rate.
	LR() float64
}

// SGD is plain stochastic gradient descent with exponential learning-rate
// decay per epoch — the paper's default configuration (decay 0.95) — and
// optional L2 regularization (weight decay).
type SGD struct {
	// LR0 is the initial learning rate.
	LR0 float64
	// Decay multiplies the learning rate after each epoch. Zero means no
	// decay (treated as 1).
	Decay float64
	// L2 is the weight-decay coefficient λ: each step applies
	// w ← w − η(g + λw) on the coordinates the gradient touches. For
	// sparse data this is the standard lazy approximation (untouched
	// coordinates are not decayed); for dense data it is exact.
	L2 float64

	lr float64
}

// NewSGD returns an SGD optimizer with the paper's default 0.95 decay.
func NewSGD(lr float64) *SGD { return &SGD{LR0: lr, Decay: 0.95, lr: lr} }

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// Reset implements Optimizer.
func (s *SGD) Reset(dim int) { s.lr = s.LR0 }

// Step implements Optimizer.
func (s *SGD) Step(w []float64, gi []int32, gv []float64) {
	lr := s.lr
	if s.L2 > 0 {
		for i, idx := range gi {
			w[idx] -= lr * (gv[i] + s.L2*w[idx])
		}
		return
	}
	for i, idx := range gi {
		w[idx] -= lr * gv[i]
	}
}

// EndEpoch implements Optimizer.
func (s *SGD) EndEpoch() {
	d := s.Decay
	if d == 0 {
		d = 1
	}
	s.lr *= d
}

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.lr }

// Adam is the Adam optimizer with lazy (sparse) moment updates: first and
// second moments and the per-coordinate step count are only advanced for
// coordinates touched by the gradient, the standard approach for sparse
// training. It uses the usual hyperparameters (β1 0.9, β2 0.999, ε 1e-8)
// and a constant learning rate.
type Adam struct {
	// LR0 is the learning rate.
	LR0 float64

	m, v []float64
	t    []float64 // per-coordinate step count for bias correction
}

// NewAdam returns an Adam optimizer with default hyperparameters.
func NewAdam(lr float64) *Adam {
	return &Adam{LR0: lr}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// Reset implements Optimizer.
func (a *Adam) Reset(dim int) {
	a.m = make([]float64, dim)
	a.v = make([]float64, dim)
	a.t = make([]float64, dim)
}

// Step implements Optimizer.
func (a *Adam) Step(w []float64, gi []int32, gv []float64) {
	if a.m == nil {
		a.Reset(len(w))
	}
	// Variables, not constants: 1-b1 rounds at run time in float64.
	b1, b2, eps := 0.9, 0.999, 1e-8
	for i, idx := range gi {
		g := gv[i]
		a.t[idx]++
		a.m[idx] = b1*a.m[idx] + (1-b1)*g
		a.v[idx] = b2*a.v[idx] + (1-b2)*g*g
		mHat := a.m[idx] / (1 - math.Pow(b1, a.t[idx]))
		vHat := a.v[idx] / (1 - math.Pow(b2, a.t[idx]))
		w[idx] -= a.LR0 * mHat / (math.Sqrt(vHat) + eps)
	}
}

// EndEpoch implements Optimizer.
func (a *Adam) EndEpoch() {}

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.LR0 }

// NewOptimizer constructs an optimizer by name ("sgd" or "adam").
func NewOptimizer(name string, lr float64) (Optimizer, error) {
	switch name {
	case "sgd", "":
		return NewSGD(lr), nil
	case "adam":
		return NewAdam(lr), nil
	}
	return nil, fmt.Errorf("ml: unknown optimizer %q", name)
}
