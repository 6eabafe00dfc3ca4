package ml

import (
	"math"
	"math/rand"

	"corgipile/internal/data"
)

// MLP is a one-hidden-layer perceptron with ReLU activation and a softmax
// output — the non-convex stand-in for the paper's deep models (VGG,
// ResNet, TextCNN). It exercises the non-convex case of Theorem 2: on
// clustered data without shuffling it fails to learn, while CorgiPile
// recovers Shuffle-Once accuracy.
//
// Weight layout: W1 is Hidden rows of (features+1) values (bias last),
// followed by W2, Classes rows of (Hidden+1) values.
//
// The kernels below are bit-exact rewrites of the plain loops (DESIGN.md
// "Bit-exact kernels"): every weight, loss and accuracy is the value the
// one-row-at-a-time, (gi, gv)-only form computes.
type MLP struct {
	// Classes is the number of output classes.
	Classes int
	// Hidden is the hidden-layer width.
	Hidden int
}

// Name implements Model.
func (MLP) Name() string { return "mlp" }

// Dim implements Model.
func (m MLP) Dim(features int) int {
	return m.Hidden*(features+1) + m.Classes*(m.Hidden+1)
}

// InitWeights fills w with the scaled Gaussian initialization MLPs need
// (zero initialization would leave all hidden units identical). Other
// models in this package train fine from zero weights.
func (m MLP) InitWeights(w []float64, features int, rng *rand.Rand) {
	in1 := features + 1
	scale1 := math.Sqrt(2 / float64(features+1))
	for i := 0; i < m.Hidden*in1; i++ {
		w[i] = rng.NormFloat64() * scale1
	}
	scale2 := math.Sqrt(2 / float64(m.Hidden+1))
	for i := m.Hidden * in1; i < len(w); i++ {
		w[i] = rng.NormFloat64() * scale2
	}
}

// features returns the input width w was sized for: Dim inverted.
func (m MLP) features(w []float64) int {
	return (len(w)-m.Classes*(m.Hidden+1))/m.Hidden - 1
}

// forward computes hidden activations h (post-ReLU) and output
// probabilities p into the workspace's scratch buffers, on the scalar loops.
func (m MLP) forward(ws *Workspace, w []float64, t *data.Tuple) (h, p []float64, features int) {
	features = m.features(w)
	h, p = scratch(&ws.h, m.Hidden), scratch(&ws.p, m.Classes)
	m.outputs(h, p, w, t, features, laneWeights{}, 0)
	return h, p, features
}

// outputs writes t's hidden activations into h and its output probabilities
// into p (logits, then softmaxProbs).
func (m MLP) outputs(h, p, w []float64, t *data.Tuple, features int, lw laneWeights, l rowLayout) {
	m.logits(h, p, w, t, features, lw, l)
	softmaxProbs(p)
}

// logits writes t's hidden activations into h and its output logits into
// z. With the zero lw it runs the scalar loops and does not read l;
// otherwise lw holds w's laneWeights and l is t's layout (layoutOf): the
// output layer runs on gemvT, and so does the hidden layer unless t is
// sparse with holes. Both forms compute every activation and logit
// bit-identically.
func (m MLP) logits(h, z, w []float64, t *data.Tuple, features int, lw laneWeights, l rowLayout) {
	if lw.hs == 0 || l == layoutSparse {
		hiddenLayer(h, w, t, features)
	} else {
		lw.hidden(h, t, l, features)
	}
	if lw.hs == 0 {
		off := m.Hidden * (features + 1)
		in2 := m.Hidden + 1
		for k := 0; k < m.Classes; k++ {
			wk := w[off+k*in2 : off+(k+1)*in2]
			zk := wk[m.Hidden] // bias
			for j := 0; j < m.Hidden; j++ {
				zk += wk[j] * h[j]
			}
			z[k] = zk
		}
	} else {
		copy(z, lw.w2t[m.Hidden*lw.cs:]) // biases
		gemvT(z, h, lw.w2t, lw.cs)
	}
}

// hiddenLayer sets h[j] = ReLU(⟨w_j[:features], x⟩ + w_j[features]) for the
// len(h) rows of W1, four rows per pass over the tuple's features. Each row
// keeps its own accumulator, starts it at 0 and adds w_j[idx]*x_i in exactly
// Tuple.Dot's order (skipping idx >= features as Dot does), so every h[j] is
// bit-identical to the one-row-at-a-time Dot form; only the number of passes
// over x changes. The products are written as Dot writes them, so a compiler
// that fuses multiply-add treats both forms alike. Rows past the last
// multiple of four go through Dot itself.
//
// A sparse tuple whose indices are exactly 0, 1, …, n−1 — a dense row stored
// sparse, as LIBSVM loads one — takes the dense loop over SparseVal[:n]: for
// it idx < features holds exactly when i < features, so both loops perform
// the same operations in the same order.
func hiddenLayer(h, w []float64, t *data.Tuple, features int) {
	in1 := features + 1
	sparse, xs := t.IsSparse(), t.Dense
	if sparse && prefixRow(t) {
		sparse, xs = false, t.SparseVal[:len(t.SparseIdx)]
	}
	if len(xs) > features {
		xs = xs[:features]
	}
	j := 0
	for ; j+4 <= len(h); j += 4 {
		w0 := w[j*in1 : j*in1+in1]
		w1 := w[(j+1)*in1 : (j+1)*in1+in1]
		w2 := w[(j+2)*in1 : (j+2)*in1+in1]
		w3 := w[(j+3)*in1 : (j+3)*in1+in1]
		var s0, s1, s2, s3 float64
		if sparse {
			idxs, vals := t.SparseIdx, t.SparseVal[:len(t.SparseIdx)]
			for i, idx := range idxs {
				if int(idx) < features {
					x := vals[i]
					s0 += w0[idx] * x
					s1 += w1[idx] * x
					s2 += w2[idx] * x
					s3 += w3[idx] * x
				}
			}
		} else {
			r0, r1, r2, r3 := w0[:len(xs)], w1[:len(xs)], w2[:len(xs)], w3[:len(xs)]
			for i, x := range xs {
				s0 += r0[i] * x
				s1 += r1[i] * x
				s2 += r2[i] * x
				s3 += r3[i] * x
			}
		}
		h[j] = relu(s0 + w0[features])
		h[j+1] = relu(s1 + w1[features])
		h[j+2] = relu(s2 + w2[features])
		h[j+3] = relu(s3 + w3[features])
	}
	for ; j < len(h); j++ {
		wj := w[j*in1 : (j+1)*in1]
		h[j] = relu(t.Dot(wj[:features]) + wj[features])
	}
}

// prefixRow reports whether the sparse tuple t's indices are exactly 0, 1,
// …, n−1: by one pointer comparison when t carries data.PrefixIdx, as every
// such row of a decoded table does, else by gapFree's scan.
func prefixRow(t *data.Tuple) bool {
	_, ok := t.Row()
	return ok || gapFree(t.SparseIdx)
}

// gapFree reports whether idxs is exactly 0, 1, …, len(idxs)−1. It checks
// every index: no decoder enforces the strictly increasing order Tuple
// documents, so the last index alone proves nothing.
func gapFree(idxs []int32) bool {
	for i, idx := range idxs {
		if int(idx) != i {
			return false
		}
	}
	return true
}

// relu returns max(z, 0), mapping NaN and −0 to +0. It tests z's bits, not
// z > 0, so the compiler emits a conditional move: whether a hidden unit
// fires is a coin toss a branch predictor loses. z > 0 exactly when its bits
// lie in [1, +Inf's bits].
func relu(z float64) float64 {
	b := math.Float64bits(z)
	if b-1 >= 0x7FF0000000000000 {
		b = 0
	}
	return math.Float64frombits(b)
}

// backward is the MLP's one per-tuple backpropagation: it returns the
// example loss and puts the gradient's (index, value) entries into d. MLP
// gradients are dense over both layers (sparse inputs still yield sparse
// first-layer rows), so all but the bias entries go to d a row at a time. d
// rounds every product through float64(...), so that when it adds them
// straight into an accumulator no compiler can fuse them into that add: the
// accumulator then receives exactly the rounded values the (gi, gv) form
// stores. gradBatch is the batch-major form of the same entries.
func (m MLP) backward(ws *Workspace, w []float64, t *data.Tuple, d *gradDest) float64 {
	features := m.features(w)
	h, dk, dh := scratch(&ws.h, m.Hidden), scratch(&ws.p, m.Classes), scratch(&ws.dh, m.Hidden)
	loss := m.deltas(h, dk, dh, w, t, features, laneWeights{}, 0)

	in1 := features + 1
	off := m.Hidden * in1
	in2 := m.Hidden + 1
	// Output layer: row k of W2 gets dk[k]·h, then its bias dk[k].
	for k, g := range dk {
		if g == 0 {
			continue
		}
		base := int32(off + k*in2)
		d.putScaledDense(base, g, h)
		d.put(base+int32(m.Hidden), g)
	}
	// Hidden layer: ReLU gate (h[j] > 0), dL/dz1_j = dh[j].
	for j, g := range dh {
		if h[j] <= 0 || g == 0 {
			continue
		}
		base := int32(j * in1)
		d.putTuple(base, g, t)
		d.put(base+int32(features), g)
	}
	return loss
}

// deltas runs t's forward pass into h (outputs, with lw and l) and returns
// the example loss, with the output deltas dL/dz2_k = p_k − 1{k=y} in dk and
// the hidden deltas dh[j] = Σ_k dk[k]·W2[k][j] (the k with dk[k] = 0
// skipped, the rest added in k order) in dh, on gemvT unless lw is zero.
func (m MLP) deltas(h, dk, dh, w []float64, t *data.Tuple, features int, lw laneWeights, l rowLayout) float64 {
	m.outputs(h, dk, w, t, features, lw, l)
	y := classIndex(t.Label, m.Classes)
	py := dk[y]
	if py < 1e-300 {
		py = 1e-300
	}
	loss := -math.Log(py)
	dk[y] -= 1

	if lw.hs != 0 {
		lw.hiddenDeltas(dh, dk)
		return loss
	}
	off := m.Hidden * (features + 1)
	in2 := m.Hidden + 1
	for j := range dh {
		dh[j] = 0
	}
	for k, g := range dk {
		if g == 0 {
			continue
		}
		wk := w[off+k*in2 : off+k*in2+m.Hidden]
		for j, wkj := range wk {
			dh[j] += g * wkj
		}
	}
	return loss
}

// Predict implements Model, returning the argmax class index. It runs the
// scalar loops: a pass over many tuples binds Predictor instead.
func (m MLP) Predict(w []float64, t *data.Tuple) float64 {
	var ws Workspace
	_, p, _ := m.forward(&ws, w, t)
	return argmax(p)
}

// predictor implements boundPredictor: Predict on the lane kernels, with w
// transposed once for every call, and on the logits wherever they settle
// the argmax (classOf).
func (m MLP) predictor(w []float64) func(*data.Tuple) float64 {
	var ws Workspace
	features := m.features(w)
	lw := m.transpose(&ws, w, features)
	hz := scratch(&ws.h, m.Hidden+m.Classes)
	h, z := hz[:m.Hidden], hz[m.Hidden:]
	return func(t *data.Tuple) float64 {
		l, _ := layoutOf(t, features)
		m.logits(h, z, w, t, features, lw, l)
		return classOf(z)
	}
}

// argmaxGap is how far below the largest logit every other one must lie,
// as z[k] − max, for classOf to skip the probabilities: math.Exp of a value
// at most −2⁻²⁰ is below 1 − 2⁻²¹.
const argmaxGap = -0x1p-20

// classOf returns argmax(softmaxProbs(z)), z's first largest probability,
// without the exponentials when the logits settle it: no logit is NaN, the
// largest is finite, and every other one's z[k] − max, the exact argument
// softmaxProbs passes to math.Exp, is at most argmaxGap. Then the first
// largest logit has exp 1 and the others below 1 − 2⁻²¹, over the same sum
// of at least 1, so its probability is the unique largest (DESIGN.md
// "Bit-exact kernels"). Otherwise it runs softmaxProbs on z and argmax.
func classOf(z []float64) float64 {
	best := int(argmax(z))
	max := z[best] // softmaxProbs' max, bit for bit
	settled := finite(max)
	for k := 0; settled && k < len(z); k++ {
		settled = k == best || z[k]-max <= argmaxGap
	}
	if settled {
		return float64(best)
	}
	softmaxProbs(z)
	return argmax(z)
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return x-x == 0 }

// argmax returns the index of p's first largest value.
func argmax(p []float64) float64 {
	best, bestV := 0, p[0]
	for k, v := range p[1:] {
		if v > bestV {
			best, bestV = k+1, v
		}
	}
	return float64(best)
}
