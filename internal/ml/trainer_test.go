package ml

import (
	"math"
	"math/rand"
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/obs"
)

func binaryData(n int, order data.Order, seed int64) *data.Dataset {
	return data.SyntheticBinary(data.SyntheticConfig{
		Tuples: n, Features: 10, Separation: 3, Order: order, Seed: seed})
}

func TestTrainerLearnsSeparableData(t *testing.T) {
	ds := binaryData(2000, data.OrderShuffled, 1)
	m := SVM{}
	tr := NewTrainer(m, NewSGD(0.01), 1)
	w := make([]float64, m.Dim(ds.Features))
	for epoch := 0; epoch < 5; epoch++ {
		tr.RunEpoch(w, SliceStream(ds))
	}
	if acc := Accuracy(m, w, ds); acc < 0.9 {
		t.Fatalf("SVM train accuracy = %.3f, want >= 0.9", acc)
	}
}

func TestTrainerLogisticDecreasesLoss(t *testing.T) {
	ds := binaryData(1000, data.OrderShuffled, 2)
	m := LogisticRegression{}
	tr := NewTrainer(m, NewSGD(0.05), 1)
	w := make([]float64, m.Dim(ds.Features))
	before := MeanLoss(m, w, ds)
	for epoch := 0; epoch < 3; epoch++ {
		tr.RunEpoch(w, SliceStream(ds))
	}
	after := MeanLoss(m, w, ds)
	if after >= before {
		t.Fatalf("loss did not decrease: %v → %v", before, after)
	}
}

func TestTrainerEpochStats(t *testing.T) {
	ds := binaryData(100, data.OrderShuffled, 3)
	m := LogisticRegression{}
	tr := NewTrainer(m, NewSGD(0.1), 1)
	w := make([]float64, m.Dim(ds.Features))
	stats := tr.RunEpoch(w, SliceStream(ds))
	if stats.Tuples != 100 {
		t.Fatalf("Tuples = %d, want 100", stats.Tuples)
	}
	if stats.AvgLoss <= 0 {
		t.Fatalf("AvgLoss = %v, want > 0", stats.AvgLoss)
	}
}

func TestTrainerOnTupleHook(t *testing.T) {
	ds := binaryData(50, data.OrderShuffled, 4)
	m := SVM{}
	tr := NewTrainer(m, NewSGD(0.1), 1)
	calls := 0
	tr.OnTuple = func(*data.Tuple) { calls++ }
	w := make([]float64, m.Dim(ds.Features))
	tr.RunEpoch(w, SliceStream(ds))
	if calls != 50 {
		t.Fatalf("OnTuple called %d times, want 50", calls)
	}
}

// The trainer writes sgd.batches once per epoch, as it returns: the counter
// equals EpochStats.Steps, a final partial batch included, and reads 0
// mid-epoch.
func TestTrainerCountsBatchesPerEpoch(t *testing.T) {
	ds := binaryData(50, data.OrderShuffled, 4)
	for _, tt := range []struct{ batch, steps int }{{1, 50}, {7, 8}} {
		reg := obs.New()
		tr := NewTrainer(SVM{}, NewSGD(0.1), tt.batch)
		tr.Obs = reg
		var midEpoch int64
		tr.OnTuple = func(*data.Tuple) { midEpoch += reg.Counter(obs.SGDBatches) }
		w := make([]float64, SVM{}.Dim(ds.Features))
		stats := tr.RunEpoch(w, SliceStream(ds))
		if stats.Steps != tt.steps {
			t.Errorf("batch %d: Steps = %d, want %d", tt.batch, stats.Steps, tt.steps)
		}
		if got := reg.Counter(obs.SGDBatches); got != int64(stats.Steps) {
			t.Errorf("batch %d: %s = %d, want Steps = %d", tt.batch, obs.SGDBatches, got, stats.Steps)
		}
		if got := reg.Counter(obs.SGDTuples); got != 50 {
			t.Errorf("batch %d: %s = %d, want 50", tt.batch, obs.SGDTuples, got)
		}
		if midEpoch != 0 {
			t.Errorf("batch %d: %s moved mid-epoch", tt.batch, obs.SGDBatches)
		}
	}
}

func TestMiniBatchMatchesManualAverage(t *testing.T) {
	// One batch of 4 tuples with plain SGD must equal the manual averaged
	// gradient step.
	ds := binaryData(4, data.OrderShuffled, 5)
	m := LogisticRegression{}
	dim := m.Dim(ds.Features)

	w1 := make([]float64, dim)
	tr := NewTrainer(m, &SGD{LR0: 0.5, Decay: 1}, 4)
	tr.Opt.Reset(dim)
	tr.RunEpoch(w1, SliceStream(ds))

	w2 := make([]float64, dim)
	g := make([]float64, dim)
	var ws Workspace
	for i := range ds.Tuples {
		_, gi, gv := Grad(m, &ws, w2, &ds.Tuples[i], nil, nil)
		for j, idx := range gi {
			g[idx] += gv[j]
		}
	}
	for i := range w2 {
		w2[i] -= 0.5 * g[i] / 4
	}
	for i := range w1 {
		if math.Abs(w1[i]-w2[i]) > 1e-12 {
			t.Fatalf("w[%d] = %v, manual %v", i, w1[i], w2[i])
		}
	}
}

func TestMiniBatchPartialFinalBatchApplied(t *testing.T) {
	ds := binaryData(5, data.OrderShuffled, 6)
	m := LogisticRegression{}
	tr := NewTrainer(m, NewSGD(0.5), 4)
	w := make([]float64, m.Dim(ds.Features))
	tr.RunEpoch(w, SliceStream(ds))
	var moved bool
	for _, v := range w {
		if v != 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("partial final batch was dropped")
	}
}

func TestMiniBatchLearns(t *testing.T) {
	ds := binaryData(2000, data.OrderShuffled, 7)
	m := SVM{}
	tr := NewTrainer(m, NewSGD(0.05), 128)
	w := make([]float64, m.Dim(ds.Features))
	for epoch := 0; epoch < 10; epoch++ {
		tr.RunEpoch(w, SliceStream(ds))
	}
	if acc := Accuracy(m, w, ds); acc < 0.9 {
		t.Fatalf("mini-batch SVM accuracy = %.3f, want >= 0.9", acc)
	}
}

func TestTrainerEmptyStream(t *testing.T) {
	m := SVM{}
	tr := NewTrainer(m, NewSGD(0.1), 1)
	w := make([]float64, m.Dim(4))
	stats := tr.RunEpoch(w, func() (*data.Tuple, bool) { return nil, false })
	if stats.Tuples != 0 || stats.AvgLoss != 0 {
		t.Fatalf("empty epoch stats = %+v", stats)
	}
}

func TestSoftmaxTrainsMulticlass(t *testing.T) {
	ds := data.SyntheticMulticlass(data.SyntheticConfig{
		Tuples: 1500, Features: 16, Classes: 3, Separation: 4, Order: data.OrderShuffled, Seed: 8})
	m := Softmax{Classes: 3}
	tr := NewTrainer(m, NewSGD(0.05), 1)
	w := make([]float64, m.Dim(ds.Features))
	for epoch := 0; epoch < 5; epoch++ {
		tr.RunEpoch(w, SliceStream(ds))
	}
	if acc := Accuracy(m, w, ds); acc < 0.85 {
		t.Fatalf("softmax accuracy = %.3f, want >= 0.85", acc)
	}
}

func TestMLPTrainsNonConvex(t *testing.T) {
	ds := data.SyntheticMulticlass(data.SyntheticConfig{
		Tuples: 1500, Features: 16, Classes: 3, Separation: 4, Order: data.OrderShuffled, Seed: 9})
	m := MLP{Classes: 3, Hidden: 16}
	w := make([]float64, m.Dim(ds.Features))
	m.InitWeights(w, ds.Features, rand.New(rand.NewSource(1)))
	tr := NewTrainer(m, NewSGD(0.02), 16)
	for epoch := 0; epoch < 15; epoch++ {
		tr.RunEpoch(w, SliceStream(ds))
	}
	if acc := Accuracy(m, w, ds); acc < 0.8 {
		t.Fatalf("MLP accuracy = %.3f, want >= 0.8", acc)
	}
}

func TestLinearRegressionRecoversSignal(t *testing.T) {
	ds := data.SyntheticRegression(data.SyntheticConfig{
		Tuples: 3000, Features: 8, Noise: 0.1, Order: data.OrderShuffled, Seed: 10})
	m := LinearRegression{}
	tr := NewTrainer(m, NewSGD(0.01), 1)
	w := make([]float64, m.Dim(ds.Features))
	for epoch := 0; epoch < 10; epoch++ {
		tr.RunEpoch(w, SliceStream(ds))
	}
	if r2 := R2(m, w, ds); r2 < 0.95 {
		t.Fatalf("R² = %.3f, want >= 0.95", r2)
	}
}

func TestSparseTrainingTouchesOnlySparseCoords(t *testing.T) {
	// With sparse data, untouched weight coordinates must remain exactly 0.
	m := LogisticRegression{}
	dim := m.Dim(1000)
	w := make([]float64, dim)
	tr := NewTrainer(m, NewSGD(0.1), 1)
	tp := data.Tuple{Label: 1, SparseIdx: []int32{3, 500}, SparseVal: []float64{1, 2}}
	sent := false
	tr.RunEpoch(w, func() (*data.Tuple, bool) {
		if sent {
			return nil, false
		}
		sent = true
		return &tp, true
	})
	for i, v := range w {
		touched := i == 3 || i == 500 || i == dim-1 // features + bias
		if touched && v == 0 {
			t.Fatalf("w[%d] should have moved", i)
		}
		if !touched && v != 0 {
			t.Fatalf("w[%d] = %v, should be untouched", i, v)
		}
	}
}

func TestGradNorm2ShrinksWithTraining(t *testing.T) {
	ds := binaryData(500, data.OrderShuffled, 11)
	m := LogisticRegression{}
	w := make([]float64, m.Dim(ds.Features))
	before := GradNorm2(m, w, ds)
	tr := NewTrainer(m, NewSGD(0.05), 1)
	for epoch := 0; epoch < 5; epoch++ {
		tr.RunEpoch(w, SliceStream(ds))
	}
	after := GradNorm2(m, w, ds)
	if after >= before {
		t.Fatalf("‖∇F‖² did not shrink: %v → %v", before, after)
	}
}

func TestAccuracyAndMeanLossEmpty(t *testing.T) {
	ds := &data.Dataset{}
	if Accuracy(SVM{}, nil, ds) != 0 || MeanLoss(SVM{}, nil, ds) != 0 || R2(LinearRegression{}, nil, ds) != 0 {
		t.Fatal("empty dataset metrics must be 0")
	}
}

func TestR2PerfectAndConstant(t *testing.T) {
	ds := &data.Dataset{Task: data.TaskRegression, Features: 1}
	ds.Tuples = []data.Tuple{
		{Label: 1, Dense: []float64{1}},
		{Label: 2, Dense: []float64{2}},
		{Label: 3, Dense: []float64{3}},
	}
	m := LinearRegression{}
	w := []float64{1, 0} // predict x exactly
	if r2 := R2(m, w, ds); math.Abs(r2-1) > 1e-12 {
		t.Fatalf("perfect R² = %v, want 1", r2)
	}
	// Constant targets: R² defined as 0 here.
	for i := range ds.Tuples {
		ds.Tuples[i].Label = 5
	}
	if r2 := R2(m, w, ds); r2 != 0 {
		t.Fatalf("constant-target R² = %v, want 0", r2)
	}
}

// MeanLoss returns the mean per-example loss of the model at w over ds —
// the objective value F(w).
func MeanLoss(m Model, w []float64, ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	var ws Workspace
	var sum float64
	for i := range ds.Tuples {
		loss, _, _ := Grad(m, &ws, w, &ds.Tuples[i], nil, nil)
		sum += loss
	}
	return sum / float64(ds.Len())
}

// GradNorm2 returns ‖∇F(w)‖² — the convergence measure of Theorem 2 for
// non-convex objectives.
func GradNorm2(m Model, w []float64, ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	g := make([]float64, len(w))
	var ws Workspace
	var gi []int32
	var gv []float64
	for i := range ds.Tuples {
		_, gi, gv = Grad(m, &ws, w, &ds.Tuples[i], gi[:0], gv[:0])
		for j, idx := range gi {
			g[idx] += gv[j]
		}
	}
	inv := 1 / float64(ds.Len())
	var n2 float64
	for _, v := range g {
		v *= inv
		n2 += v * v
	}
	if math.IsNaN(n2) {
		return math.Inf(1)
	}
	return n2
}
