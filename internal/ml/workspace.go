package ml

import "corgipile/internal/data"

// Workspace holds scratch buffers for gradient evaluation, so the innermost
// loop of training — one Grad call per tuple — performs no heap allocation.
// The Trainer owns one; a Workspace must not be shared between goroutines.
//
// The zero value is ready to use: buffers grow on first use and are reused
// afterwards.
type Workspace struct {
	// h, p, dh are the MLP's hidden activations, output probabilities, and
	// hidden-layer backprop temporaries; p doubles as the Softmax logit
	// buffer and dh as the FM per-factor sum buffer.
	h, p, dh []float64

	// The MLP's batch scratch (gradBatch): per tuple of the batch its
	// loss, layout, hidden activations, output deltas and hidden deltas;
	// per W2 row the hidden units not yet marked; per W1 row the length of
	// its marked prefix and the tuples that reach it.
	loss         []float64
	layout       []rowLayout
	bh, bdk, bdh []float64
	unmarked     []int32
	nUnmarked    []int
	markedPrefix []int
	active       []int32
	nActive      []int
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

// WorkspaceGrader is implemented by models whose gradient can be evaluated
// allocation-free given Workspace scratch. All models in this package
// implement it; the GradWS helper falls back to Model.Grad for external
// models that do not.
type WorkspaceGrader interface {
	// GradWS is Model.Grad with caller-owned scratch: it must not allocate
	// beyond growing ws's buffers and the gi/gv accumulators.
	GradWS(ws *Workspace, w []float64, t *data.Tuple, gi []int32, gv []float64) (float64, []int32, []float64)
}

// GradWS evaluates m's example loss and gradient using ws as scratch when m
// supports it, falling back to Model.Grad otherwise — the compatibility shim
// that lets the allocation-free trainer run any Model.
func GradWS(m Model, ws *Workspace, w []float64, t *data.Tuple, gi []int32, gv []float64) (float64, []int32, []float64) {
	if g, ok := m.(WorkspaceGrader); ok {
		return g.GradWS(ws, w, t, gi, gv)
	}
	return m.Grad(w, t, gi, gv)
}

// workspacePredictor is implemented by models whose Predict needs scratch
// buffers: predictWS is Predict with that scratch in ws.
type workspacePredictor interface {
	predictWS(ws *Workspace, w []float64, t *data.Tuple) float64
}

// Predictor returns m's Predict, bound to one Workspace when m needs scratch,
// so a pass over many tuples — an evaluation pass, a PREDICT statement —
// allocates once rather than per tuple. Like a Workspace, the returned
// function must not be shared between goroutines.
func Predictor(m Model) func(w []float64, t *data.Tuple) float64 {
	if p, ok := m.(workspacePredictor); ok {
		ws := new(Workspace)
		return func(w []float64, t *data.Tuple) float64 { return p.predictWS(ws, w, t) }
	}
	return m.Predict
}
