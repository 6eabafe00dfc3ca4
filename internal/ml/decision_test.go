package ml

import (
	"testing"

	"corgipile/internal/data"
)

func TestDecisionValuePerModel(t *testing.T) {
	tp := &data.Tuple{Label: 1, Dense: []float64{2, 3}}
	// GLMs: decision value is the margin.
	w := []float64{1, 1, 0.5}
	for _, m := range []Model{LogisticRegression{}, SVM{}, LinearRegression{}} {
		if got := DecisionValue(m, w)(tp); got != 5.5 {
			t.Fatalf("%s decision = %v, want 5.5", m.Name(), got)
		}
	}
	// FM: decision value is its score (finite, deterministic).
	fm := FactorizationMachine{Factors: 2}
	wf := make([]float64, fm.Dim(2))
	if got := DecisionValue(fm, wf)(tp); got != 0 {
		t.Fatalf("zero-weight FM decision = %v, want 0", got)
	}
	// Fallback (softmax): prediction index.
	sm := Softmax{Classes: 3}
	ws := make([]float64, sm.Dim(2))
	if got := DecisionValue(sm, ws)(tp); got != sm.Predict(ws, tp) {
		t.Fatal("softmax decision should fall back to Predict")
	}
}
