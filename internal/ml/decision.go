package ml

import "corgipile/internal/data"

// DecisionValue returns a real-valued ranking score for the model's
// prediction at weights w: the margin ⟨w,x⟩+b for GLM classifiers and the
// FM, the predicted value for regression, and the predicted class for
// multi-class models. Used by AUC. Like Predictor, the returned function
// holds its scratch (an FM's per-factor sums) for the whole pass, so it
// allocates once, not per tuple; it must not be shared between goroutines.
func DecisionValue(m Model, w []float64) func(*data.Tuple) float64 {
	switch m := m.(type) {
	case LogisticRegression, SVM, LinearRegression:
		return func(t *data.Tuple) float64 { return margin(w, t) }
	case FactorizationMachine:
		ws := new(Workspace)
		return func(t *data.Tuple) float64 {
			y, _ := m.scoreSums(ws, w, t)
			return y
		}
	default:
		return Predictor(m, w)
	}
}
