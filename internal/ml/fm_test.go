package ml

import (
	"math"
	"math/rand"
	"testing"

	"corgipile/internal/data"
)

func fmWeights(m FactorizationMachine, features int, seed int64) []float64 {
	w := make([]float64, m.Dim(features))
	rng := rand.New(rand.NewSource(seed))
	for i := range w {
		w[i] = rng.NormFloat64() * 0.3
	}
	return w
}

func TestFMGradientMatchesNumericDense(t *testing.T) {
	m := FactorizationMachine{Factors: 3}
	w := fmWeights(m, 4, 1)
	for _, label := range []float64{-1, 1} {
		tp := &data.Tuple{Label: label, Dense: []float64{0.5, -1, 0, 2}}
		checkGradient(t, m, w, tp, 1e-4)
	}
}

func TestFMGradientMatchesNumericSparse(t *testing.T) {
	m := FactorizationMachine{Factors: 4}
	w := fmWeights(m, 20, 2)
	tp := &data.Tuple{Label: 1, SparseIdx: []int32{2, 7, 19}, SparseVal: []float64{1.5, -0.5, 2}}
	checkGradient(t, m, w, tp, 1e-4)
}

func TestFMScoreIdentity(t *testing.T) {
	// Brute-force pairwise interactions must equal the O(nnz·K) identity.
	m := FactorizationMachine{Factors: 2}
	w := fmWeights(m, 5, 3)
	x := []float64{1, 2, 0, -1, 0.5}
	tp := &data.Tuple{Dense: x}
	got, _ := m.scoreSums(new(Workspace), w, tp)

	d, k := 5, 2
	want := w[d] // bias
	for i := 0; i < d; i++ {
		want += w[i] * x[i]
	}
	v := func(i, f int) float64 { return w[d+1+i*k+f] }
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			dot := 0.0
			for f := 0; f < k; f++ {
				dot += v(i, f) * v(j, f)
			}
			want += dot * x[i] * x[j]
		}
	}
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("FM score = %v, brute force %v", got, want)
	}
}

func TestFMDefaultFactors(t *testing.T) {
	m := FactorizationMachine{}
	if m.Dim(10) != 10+1+10*8 {
		t.Fatalf("default-rank Dim = %d", m.Dim(10))
	}
}

func TestFMLearnsInteractionData(t *testing.T) {
	// XOR-like data: label = sign(x0*x1); linear models cannot fit it, an
	// FM can.
	rng := rand.New(rand.NewSource(4))
	ds := &data.Dataset{Task: data.TaskBinary, Features: 2, Classes: 2}
	for i := 0; i < 2000; i++ {
		x0, x1 := rng.NormFloat64(), rng.NormFloat64()
		label := -1.0
		if x0*x1 > 0 {
			label = 1.0
		}
		ds.Tuples = append(ds.Tuples, data.Tuple{ID: int64(i), Label: label, Dense: []float64{x0, x1}})
	}

	m := FactorizationMachine{Factors: 4}
	w := make([]float64, m.Dim(2))
	m.InitWeights(w, 2, 0.1, rng)
	tr := NewTrainer(m, &SGD{LR0: 0.05, Decay: 0.95, L2: 1e-5}, 1)
	for epoch := 0; epoch < 20; epoch++ {
		tr.RunEpoch(w, SliceStream(ds))
	}
	fmAcc := Accuracy(m, w, ds)

	lr := LogisticRegression{}
	wl := make([]float64, lr.Dim(2))
	trl := NewTrainer(lr, NewSGD(0.05), 1)
	for epoch := 0; epoch < 20; epoch++ {
		trl.RunEpoch(wl, SliceStream(ds))
	}
	linAcc := Accuracy(lr, wl, ds)

	t.Logf("fm=%.3f linear=%.3f", fmAcc, linAcc)
	if fmAcc < 0.9 {
		t.Fatalf("FM accuracy %.3f on interaction data, want >= 0.9", fmAcc)
	}
	if linAcc > 0.65 {
		t.Fatalf("linear model unexpectedly fits XOR data: %.3f", linAcc)
	}
}

func TestFMViaNewAndNames(t *testing.T) {
	m, err := New("fm", 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "fm" {
		t.Fatalf("name = %q", m.Name())
	}
}

func TestAUCBasics(t *testing.T) {
	// Perfect ranking → 1; inverted → 0; random-ish → ~0.5.
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []float64{-1, -1, 1, 1}
	if auc := AUC(scores, labels); auc != 1 {
		t.Fatalf("perfect AUC = %v", auc)
	}
	if auc := AUC(scores, []float64{1, 1, -1, -1}); auc != 0 {
		t.Fatalf("inverted AUC = %v", auc)
	}
	// Ties contribute half.
	if auc := AUC([]float64{0.5, 0.5}, []float64{1, -1}); auc != 0.5 {
		t.Fatalf("tied AUC = %v", auc)
	}
	// Degenerate inputs.
	if AUC(nil, nil) != 0.5 || AUC([]float64{1}, []float64{1}) != 0.5 {
		t.Fatal("degenerate AUC should be 0.5")
	}
}

func TestModelAUCImprovesWithTraining(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 2000, Features: 10, Separation: 2, Order: data.OrderShuffled, Seed: 5})
	m := LogisticRegression{}
	w := make([]float64, m.Dim(10))
	before := ModelAUC(m, w, ds) // zero weights → all scores 0 → 0.5
	if math.Abs(before-0.5) > 1e-9 {
		t.Fatalf("untrained AUC = %v, want 0.5", before)
	}
	tr := NewTrainer(m, NewSGD(0.05), 1)
	for epoch := 0; epoch < 5; epoch++ {
		tr.RunEpoch(w, SliceStream(ds))
	}
	if after := ModelAUC(m, w, ds); after < 0.9 {
		t.Fatalf("trained AUC = %v, want >= 0.9", after)
	}
}

func TestSGDL2Decay(t *testing.T) {
	opt := &SGD{LR0: 0.1, Decay: 1, L2: 0.5}
	opt.Reset(2)
	w := []float64{1, 1}
	opt.Step(w, []int32{0}, []float64{0}) // pure decay on touched coord
	if math.Abs(w[0]-0.95) > 1e-12 || w[1] != 1 {
		t.Fatalf("L2 step = %v, want [0.95 1]", w)
	}
}
