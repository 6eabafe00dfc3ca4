package ml

import (
	"math"
	"testing"

	"corgipile/internal/data"
)

// numericGrad computes a central-difference gradient of Grad's loss for
// comparison with its gradient.
func numericGrad(m Model, w []float64, t *data.Tuple) []float64 {
	const h = 1e-6
	var ws Workspace
	loss := func() float64 {
		l, _, _ := Grad(m, &ws, w, t, nil, nil)
		return l
	}
	g := make([]float64, len(w))
	for i := range w {
		orig := w[i]
		w[i] = orig + h
		up := loss()
		w[i] = orig - h
		down := loss()
		w[i] = orig
		g[i] = (up - down) / (2 * h)
	}
	return g
}

// denseGrad materializes the sparse gradient of Grad as a dense vector.
func denseGrad(m Model, w []float64, t *data.Tuple) (float64, []float64) {
	var ws Workspace
	loss, gi, gv := Grad(m, &ws, w, t, nil, nil)
	g := make([]float64, len(w))
	for i, idx := range gi {
		g[idx] += gv[i]
	}
	return loss, g
}

func checkGradient(t *testing.T, m Model, w []float64, tp *data.Tuple, tol float64) {
	t.Helper()
	_, got := denseGrad(m, w, tp)
	want := numericGrad(m, w, tp)
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
			t.Fatalf("%s: grad[%d] = %v, numeric %v", m.Name(), i, got[i], want[i])
		}
	}
}

func TestLogisticGradientMatchesNumeric(t *testing.T) {
	m := LogisticRegression{}
	w := []float64{0.3, -0.5, 0.2, 0.1}
	for _, label := range []float64{-1, 1} {
		tp := &data.Tuple{Label: label, Dense: []float64{1.5, -2, 0.5}}
		checkGradient(t, m, w, tp, 1e-5)
	}
}

func TestLogisticGradientSparse(t *testing.T) {
	m := LogisticRegression{}
	w := []float64{0.3, -0.5, 0.2, 0.7, 0.1}
	tp := &data.Tuple{Label: 1, SparseIdx: []int32{0, 3}, SparseVal: []float64{2, -1}}
	checkGradient(t, m, w, tp, 1e-5)
}

func TestSVMGradientMatchesNumeric(t *testing.T) {
	m := SVM{}
	// Pick weights away from the hinge kink.
	w := []float64{0.1, 0.1, 0}
	tp := &data.Tuple{Label: 1, Dense: []float64{0.5, 0.5}} // margin ≈ 0.1 < 1: active
	checkGradient(t, m, w, tp, 1e-5)
	tp2 := &data.Tuple{Label: 1, Dense: []float64{20, 20}} // margin = 4 > 1: inactive
	loss, g := denseGrad(m, w, tp2)
	if loss != 0 {
		t.Fatalf("inactive hinge loss = %v, want 0", loss)
	}
	for i, v := range g {
		if v != 0 {
			t.Fatalf("inactive hinge grad[%d] = %v, want 0", i, v)
		}
	}
}

func TestLinearRegressionGradientMatchesNumeric(t *testing.T) {
	m := LinearRegression{}
	w := []float64{0.5, -0.25, 0.75}
	tp := &data.Tuple{Label: 3.5, Dense: []float64{1, 2}}
	checkGradient(t, m, w, tp, 1e-5)
}

func TestSoftmaxGradientMatchesNumeric(t *testing.T) {
	m := Softmax{Classes: 3}
	w := make([]float64, m.Dim(4))
	for i := range w {
		w[i] = math.Sin(float64(i)) * 0.3
	}
	for label := 0.0; label < 3; label++ {
		tp := &data.Tuple{Label: label, Dense: []float64{1, -0.5, 2, 0.25}}
		checkGradient(t, m, w, tp, 1e-4)
	}
}

func TestSoftmaxGradientSparse(t *testing.T) {
	m := Softmax{Classes: 4}
	w := make([]float64, m.Dim(10))
	for i := range w {
		w[i] = math.Cos(float64(i)) * 0.2
	}
	tp := &data.Tuple{Label: 2, SparseIdx: []int32{1, 7}, SparseVal: []float64{1.5, -2}}
	checkGradient(t, m, w, tp, 1e-4)
}

func TestMLPGradientMatchesNumeric(t *testing.T) {
	m := MLP{Classes: 3, Hidden: 4}
	w := make([]float64, m.Dim(5))
	for i := range w {
		w[i] = math.Sin(float64(i)*1.7) * 0.4
	}
	tp := &data.Tuple{Label: 1, Dense: []float64{0.5, -1, 0.25, 2, -0.5}}
	checkGradient(t, m, w, tp, 1e-4)
}

func TestMLPGradientSparseInput(t *testing.T) {
	m := MLP{Classes: 2, Hidden: 3}
	w := make([]float64, m.Dim(8))
	for i := range w {
		w[i] = math.Cos(float64(i)*0.9) * 0.3
	}
	tp := &data.Tuple{Label: 1, SparseIdx: []int32{2, 6}, SparseVal: []float64{1, -1.5}}
	checkGradient(t, m, w, tp, 1e-4)
}

func TestPredictSigns(t *testing.T) {
	w := []float64{1, 0, 0} // margin = x0
	pos := &data.Tuple{Dense: []float64{2, 0}}
	neg := &data.Tuple{Dense: []float64{-2, 0}}
	for _, m := range []Model{LogisticRegression{}, SVM{}} {
		if m.Predict(w, pos) != 1 || m.Predict(w, neg) != -1 {
			t.Fatalf("%s: wrong prediction signs", m.Name())
		}
	}
	if got := (LinearRegression{}).Predict(w, pos); got != 2 {
		t.Fatalf("linreg predict = %v, want 2", got)
	}
}

func TestSoftmaxPredictArgmax(t *testing.T) {
	m := Softmax{Classes: 3}
	w := make([]float64, m.Dim(2))
	// Make class 2 dominate via its bias.
	w[2*(2+1)+2] = 10
	tp := &data.Tuple{Dense: []float64{0, 0}}
	if got := m.Predict(w, tp); got != 2 {
		t.Fatalf("softmax predict = %v, want 2", got)
	}
}

func TestDimValues(t *testing.T) {
	if (LogisticRegression{}).Dim(28) != 29 || (SVM{}).Dim(18) != 19 || (LinearRegression{}).Dim(90) != 91 {
		t.Fatal("GLM Dim must be features+1")
	}
	if (Softmax{Classes: 10}).Dim(784) != 10*785 {
		t.Fatal("softmax Dim wrong")
	}
	m := MLP{Classes: 10, Hidden: 32}
	if m.Dim(64) != 32*65+10*33 {
		t.Fatal("mlp Dim wrong")
	}
}

func TestSigmoidStability(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Fatalf("sigmoid(1000) = %v", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Fatalf("sigmoid(-1000) = %v", s)
	}
	if s := sigmoid(0); s != 0.5 {
		t.Fatalf("sigmoid(0) = %v", s)
	}
}

func TestLogLossStability(t *testing.T) {
	for _, z := range []float64{-1000, -30, 0, 30, 1000} {
		l := logLoss(z)
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("logLoss(%v) = %v", z, l)
		}
	}
	if math.Abs(logLoss(0)-math.Log(2)) > 1e-12 {
		t.Fatal("logLoss(0) should be ln 2")
	}
}

func TestNewModel(t *testing.T) {
	for _, name := range []string{"lr", "svm", "linreg", "softmax", "mlp"} {
		m, err := New(name, 3)
		if err != nil || m == nil {
			t.Fatalf("New(%q) failed: %v", name, err)
		}
	}
	if _, err := New("resnet50", 2); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := New("softmax", 1); err == nil {
		t.Fatal("softmax with 1 class must error")
	}
}

func TestGradCostMonotone(t *testing.T) {
	if GradCost(10) >= GradCost(1000) {
		t.Fatal("GradCost must grow with nnz")
	}
	if GradCost(0) <= 0 {
		t.Fatal("GradCost must have a positive base cost")
	}
}
