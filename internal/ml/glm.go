package ml

import (
	"math"

	"corgipile/internal/data"
)

// Generalized linear models share the shape loss(⟨w,x⟩ + b, y) with gradient
// s·x on the weight coordinates and s on the bias, where s = ∂loss/∂margin.
// The bias lives at index features (== len(w)-1).

// margin computes ⟨w,x⟩ + b with the bias stored in the last weight slot.
func margin(w []float64, t *data.Tuple) float64 {
	return t.Dot(w[:len(w)-1]) + w[len(w)-1]
}

// putFeatures puts s·x and then the bias entry s into d; s = 0 puts
// nothing.
func putFeatures(d *gradDest, t *data.Tuple, s float64, biasIdx int) {
	if s == 0 {
		return
	}
	d.putTuple(0, s, t)
	d.put(int32(biasIdx), s)
}

// LogisticRegression is binary logistic regression on ±1 labels with
// log-loss log(1 + exp(−y·margin)).
type LogisticRegression struct{}

// Name implements Model.
func (LogisticRegression) Name() string { return "lr" }

// Dim implements Model; one slot per feature plus a bias.
func (LogisticRegression) Dim(features int) int { return features + 1 }

// gradBatch implements Model.
func (LogisticRegression) gradBatch(ws *Workspace, w []float64, ts []data.Tuple, d *gradDest) []float64 {
	losses := scratch(&ws.loss, len(ts))
	for i := range ts {
		t := &ts[i]
		ym := t.Label * margin(w, t)
		losses[i] = logLoss(ym)
		// d/dmargin log(1+exp(-y·m)) = -y·σ(-y·m)
		putFeatures(d, t, -t.Label*sigmoid(-ym), len(w)-1)
	}
	return losses
}

// Predict implements Model, returning ±1.
func (LogisticRegression) Predict(w []float64, t *data.Tuple) float64 {
	if margin(w, t) >= 0 {
		return 1
	}
	return -1
}

// SVM is a linear support vector machine on ±1 labels with hinge loss
// max(0, 1 − y·margin).
type SVM struct{}

// Name implements Model.
func (SVM) Name() string { return "svm" }

// Dim implements Model.
func (SVM) Dim(features int) int { return features + 1 }

// gradBatch implements Model.
func (SVM) gradBatch(ws *Workspace, w []float64, ts []data.Tuple, d *gradDest) []float64 {
	losses := scratch(&ws.loss, len(ts))
	for i := range ts {
		t := &ts[i]
		l := 1 - t.Label*margin(w, t)
		if l <= 0 {
			losses[i] = 0
			continue
		}
		losses[i] = l
		putFeatures(d, t, -t.Label, len(w)-1)
	}
	return losses
}

// Predict implements Model, returning ±1.
func (SVM) Predict(w []float64, t *data.Tuple) float64 {
	if margin(w, t) >= 0 {
		return 1
	}
	return -1
}

// LinearRegression is least-squares regression with loss ½(margin − y)².
type LinearRegression struct{}

// Name implements Model.
func (LinearRegression) Name() string { return "linreg" }

// Dim implements Model.
func (LinearRegression) Dim(features int) int { return features + 1 }

// gradBatch implements Model.
func (LinearRegression) gradBatch(ws *Workspace, w []float64, ts []data.Tuple, d *gradDest) []float64 {
	losses := scratch(&ws.loss, len(ts))
	for i := range ts {
		t := &ts[i]
		r := margin(w, t) - t.Label
		losses[i] = 0.5 * r * r
		putFeatures(d, t, r, len(w)-1)
	}
	return losses
}

// Predict implements Model, returning the regression value.
func (LinearRegression) Predict(w []float64, t *data.Tuple) float64 {
	return margin(w, t)
}

// sigmoid is the logistic function 1/(1+e^−z), computed stably.
func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// logLoss computes log(1+exp(−z)) stably.
func logLoss(z float64) float64 {
	if z > 30 {
		return math.Exp(-z)
	}
	if z < -30 {
		return -z
	}
	return math.Log1p(math.Exp(-z))
}
