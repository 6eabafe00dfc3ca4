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

// gradBatch implements Model: −log p_y, and the gradient row for class k is
// (p_k − 1{k=y})·x, the logits in ws.
func (s Softmax) gradBatch(ws *Workspace, w []float64, ts []data.Tuple, d *gradDest) []float64 {
	losses := scratch(&ws.loss, len(ts))
	row := len(w) / s.Classes
	for i := range ts {
		t := &ts[i]
		z := s.logits(ws, w, t)
		softmaxProbs(z)
		y := classIndex(t.Label, s.Classes)
		p := z[y]
		if p < 1e-300 {
			p = 1e-300
		}
		losses[i] = -math.Log(p)
		for k := 0; k < s.Classes; k++ {
			sk := z[k]
			if k == y {
				sk -= 1
			}
			if sk == 0 {
				continue
			}
			base := int32(k * row)
			d.putTuple(base, sk, t)
			d.put(base+int32(row-1), sk) // bias
		}
	}
	return losses
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
