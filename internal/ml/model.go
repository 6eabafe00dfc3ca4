// Package ml implements the machine-learning substrate: generalized linear
// models (logistic regression, SVM, linear regression), softmax regression,
// a small multi-layer perceptron standing in for the paper's deep models,
// the SGD and Adam optimizers, a tuple/mini-batch training loop, and
// evaluation metrics.
//
// Gradients are exchanged in sparse (index, value) form so that training on
// high-dimensional sparse data (the criteo-like workload) costs O(nnz) per
// tuple rather than O(d).
package ml

import (
	"fmt"
	"unsafe"

	"corgipile/internal/data"
)

// Model is a differentiable per-example loss — one f_i of the paper's
// finite-sum objective F(x) = (1/m) Σ f_i(x). Its one gradient method is
// unexported, so every Model is one of this package's (DESIGN.md "One
// gradient method"); Grad is its per-tuple form.
type Model interface {
	// Name identifies the model, e.g. "svm".
	Name() string
	// Dim returns the weight dimensionality for a dataset with the given
	// number of features.
	Dim(features int) int
	// Predict returns the model's prediction for t: ±1 for binary
	// classifiers, the class index for multi-class models, the value for
	// regression.
	Predict(w []float64, t *data.Tuple) float64
	// gradBatch evaluates the example losses f_i(w) of ts and puts their
	// gradients' (index, value) entries into d, tuple after tuple, with ws
	// as scratch. It returns the losses, valid until the next call with
	// ws. Every entry reaches an accumulator rounded, through d's put
	// methods or a stored (gi, gv) log, so no compiler fuses a product into
	// the accumulator's add.
	gradBatch(ws *Workspace, w []float64, ts []data.Tuple, d *gradDest) []float64
}

// Grad evaluates m's example loss f_i(w) on t and appends the gradient
// ∇f_i(w) in sparse (index, value) form to gi/gv, returning the loss and the
// extended slices: m's gradBatch on a batch of one, with ws as scratch. In
// steady state it allocates nothing beyond growing ws and gi/gv.
func Grad(m Model, ws *Workspace, w []float64, t *data.Tuple, gi []int32, gv []float64) (float64, []int32, []float64) {
	ws.dest = gradDest{gi: gi, gv: gv}
	loss := m.gradBatch(ws, w, unsafe.Slice(t, 1), &ws.dest)[0] // t as a batch of one
	return loss, ws.dest.gi, ws.dest.gv
}

// New constructs a model by name for a dataset with the given class count.
// Recognized names: "lr", "logistic", "svm", "linreg", "linear_regression",
// "softmax", "mlp", "fm".
func New(name string, classes int) (Model, error) {
	switch name {
	case "lr", "logistic", "logistic_regression":
		return LogisticRegression{}, nil
	case "svm":
		return SVM{}, nil
	case "linreg", "linear", "linear_regression":
		return LinearRegression{}, nil
	case "softmax", "softmax_regression":
		if classes < 2 {
			return nil, fmt.Errorf("ml: softmax needs >=2 classes, got %d", classes)
		}
		return Softmax{Classes: classes}, nil
	case "mlp":
		if classes < 2 {
			return nil, fmt.Errorf("ml: mlp needs >=2 classes, got %d", classes)
		}
		return MLP{Classes: classes, Hidden: 32}, nil
	case "fm", "factorization_machine":
		return FactorizationMachine{Factors: 8}, nil
	}
	return nil, fmt.Errorf("ml: unknown model %q", name)
}

// GradCost estimates the simulated compute time, in nanoseconds, of one
// gradient evaluation on a tuple with the given number of stored features.
// The constants are calibrated so a 28-feature higgs-like tuple costs about
// 1 µs — the per-tuple CPU cost scale of the paper's single-core
// PostgreSQL runs, which makes large scans I/O-bound on HDD and mildly
// CPU-bound in memory, as observed in Figure 13.
func GradCost(nnz int) int64 {
	return 200 + int64(nnz)*30
}
