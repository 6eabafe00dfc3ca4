package ml

import "corgipile/internal/data"

// Workspace holds scratch buffers for gradient evaluation, so the innermost
// loop of training — one gradBatch call per batch — performs no heap
// allocation.
// The Trainer owns one; a Workspace must not be shared between goroutines.
//
// The zero value is ready to use: buffers grow on first use and are reused
// afterwards.
type Workspace struct {
	// h, p, dh are the MLP's hidden activations, output probabilities, and
	// hidden-layer backprop temporaries; p doubles as the Softmax logit
	// buffer and dh as the FM per-factor sum buffer.
	h, p, dh []float64

	// gi, gv are the FM's log of one tuple's gradient entries.
	gi []int32
	gv []float64

	// The MLP's batch scratch (gradBatch): per tuple of the batch its
	// loss and layout; at the lane strides its hidden activations (bh),
	// output deltas (bdk) and ReLU-gated hidden deltas (bdh), and the
	// deltas again unit-major (dkT, dhT); the tuples' values zero-padded
	// to whole lane groups (x); a vector of ones and the biases it adds
	// to (ones, bias); per W2 row the hidden units not yet marked, per W1
	// row the length of its marked prefix, and the rows still open to the
	// marks pass (open2, open1); the tuples a W1 row's scatter adds take
	// (active).
	loss         []float64
	layout       []rowLayout
	bh, bdk, bdh []float64
	dkT, dhT     []float64
	x            []float64
	ones, bias   []float64
	unmarked     []int32
	nUnmarked    []int
	markedPrefix []int
	open2, open1 []int32
	active       []int32

	// lanes holds the MLP's weights transposed for the lane kernels
	// (laneWeights), rebuilt once per weight version.
	lanes []float64

	// dest is Grad's destination. It lives here, not on Grad's stack,
	// because the compiler cannot see into the gradBatch interface call and
	// would move it to the heap on every call.
	dest gradDest
}

// scratch returns a scratch slice of length n backed by *buf, growing
// *buf's capacity when needed. Contents are unspecified; callers that need
// zeros must write them.
func scratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// boundPredictor is implemented by models whose Predict needs scratch
// buffers or set-up per weight version: predictor is Predict at w, with
// that scratch allocated and that set-up done once.
type boundPredictor interface {
	predictor(w []float64) func(*data.Tuple) float64
}

// Predictor returns m's Predict at weights w, bound to one Workspace and one
// set-up when m needs them, so a pass over many tuples — an evaluation
// pass, a PREDICT statement — allocates once rather than per tuple. w must
// hold the same values while the returned function is in use; like a
// Workspace, the function must not be shared between goroutines.
func Predictor(m Model, w []float64) func(*data.Tuple) float64 {
	if p, ok := m.(boundPredictor); ok {
		return p.predictor(w)
	}
	return func(t *data.Tuple) float64 { return m.Predict(w, t) }
}
