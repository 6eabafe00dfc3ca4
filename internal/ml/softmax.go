package ml

import (
	"math"

	"corgipile/internal/data"
)

// Softmax is multinomial logistic regression over K classes with labels
// 0..K−1. The weight vector stores K rows of (features + 1) values, class k
// occupying w[k*(d+1) : (k+1)*(d+1)] with the bias in the last slot.
type Softmax struct {
	// Classes is the number of classes K.
	Classes int
}

// Name implements Model.
func (Softmax) Name() string { return "softmax" }

// Dim implements Model.
func (s Softmax) Dim(features int) int { return s.Classes * (features + 1) }

// classIndex maps a tuple label to a class index: −1 → 0 for binary data,
// otherwise the integer label.
func classIndex(label float64, classes int) int {
	if label < 0 {
		return 0
	}
	k := int(label)
	if k >= classes {
		k = classes - 1
	}
	return k
}

// logits computes the K class scores into the workspace's scratch buffer.
func (s Softmax) logits(ws *Workspace, w []float64, t *data.Tuple) []float64 {
	row := len(w) / s.Classes
	z := scratch(&ws.p, s.Classes)
	for k := 0; k < s.Classes; k++ {
		wk := w[k*row : (k+1)*row]
		z[k] = t.Dot(wk[:row-1]) + wk[row-1]
	}
	return z
}

// softmaxProbs exponentiates the logits in place into probabilities, stably.
func softmaxProbs(z []float64) {
	max := z[0]
	for _, v := range z[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range z {
		z[i] = math.Exp(v - max)
		sum += z[i]
	}
	for i := range z {
		z[i] /= sum
	}
}

// Loss implements Model: −log p_y.
func (s Softmax) Loss(w []float64, t *data.Tuple) float64 {
	var ws Workspace
	z := s.logits(&ws, w, t)
	softmaxProbs(z)
	p := z[classIndex(t.Label, s.Classes)]
	if p < 1e-300 {
		p = 1e-300
	}
	return -math.Log(p)
}

// Grad implements Model. The gradient row for class k is (p_k − 1{k=y})·x.
func (s Softmax) Grad(w []float64, t *data.Tuple, gi []int32, gv []float64) (float64, []int32, []float64) {
	var ws Workspace
	return s.GradWS(&ws, w, t, gi, gv)
}

// GradWS implements WorkspaceGrader: Grad with the logit buffer in ws, so
// steady-state calls are allocation-free.
func (s Softmax) GradWS(ws *Workspace, w []float64, t *data.Tuple, gi []int32, gv []float64) (float64, []int32, []float64) {
	z := s.logits(ws, w, t)
	softmaxProbs(z)
	y := classIndex(t.Label, s.Classes)
	p := z[y]
	if p < 1e-300 {
		p = 1e-300
	}
	loss := -math.Log(p)
	row := len(w) / s.Classes
	for k := 0; k < s.Classes; k++ {
		sk := z[k]
		if k == y {
			sk -= 1
		}
		if sk == 0 {
			continue
		}
		base := int32(k * row)
		if t.IsSparse() {
			for i, idx := range t.SparseIdx {
				gi = append(gi, base+idx)
				gv = append(gv, sk*t.SparseVal[i])
			}
		} else {
			for i, v := range t.Dense {
				if v == 0 {
					continue
				}
				gi = append(gi, base+int32(i))
				gv = append(gv, sk*v)
			}
		}
		gi = append(gi, base+int32(row-1)) // bias
		gv = append(gv, sk)
	}
	return loss, gi, gv
}

// Predict implements Model, returning the argmax class index.
func (s Softmax) Predict(w []float64, t *data.Tuple) float64 {
	var ws Workspace
	z := s.logits(&ws, w, t)
	best, bestV := 0, z[0]
	for k, v := range z[1:] {
		if v > bestV {
			best, bestV = k+1, v
		}
	}
	return float64(best)
}
