package ml

import (
	"math/rand"
	"testing"

	"corgipile/internal/data"
)

// parityCase is one model/dataset pair of the procs-parity tests. The MLP
// cases matter most: at procs=1 their batch gradients go straight into the
// accumulator, at procs>=2 through the (gi, gv) log and the ordered reduce.
type parityCase struct {
	name  string
	model Model
	ds    *data.Dataset
	init  func(w []float64)
}

func parityCases(n int, seed int64) []parityCase {
	mlpData := func(sparse bool) *data.Dataset {
		return data.SyntheticMulticlass(data.SyntheticConfig{
			Tuples: n, Features: 24, Classes: 4, Sparse: sparse, NNZ: 9,
			Order: data.OrderShuffled, Seed: seed})
	}
	mlp := MLP{Classes: 4, Hidden: 30}
	mlpInit := func(w []float64) { mlp.InitWeights(w, 24, rand.New(rand.NewSource(seed))) }
	return []parityCase{
		{"lr", LogisticRegression{}, binaryData(n, data.OrderShuffled, seed), func(w []float64) {
			for i := range w {
				w[i] = 0.01 * float64(i%7)
			}
		}},
		{"svm", SVM{}, binaryData(n, data.OrderShuffled, seed), nil},
		{"mlp_dense", mlp, mlpData(false), mlpInit},
		{"mlp_sparse", mlp, mlpData(true), mlpInit},
	}
}

// TestBatchEngineMatchesInline: the pooled engine must produce bit-for-bit
// the same accumulated gradient and loss sum as the single-proc inline path.
func TestBatchEngineMatchesInline(t *testing.T) {
	for _, c := range parityCases(256, 41) {
		batch := make([]data.Tuple, c.ds.Len())
		for i := range batch {
			batch[i] = *c.ds.At(i)
		}
		w := make([]float64, c.model.Dim(c.ds.Features))
		if c.init != nil {
			c.init(w)
		}

		ref := func(procs int) ([]int32, []float64, float64) {
			eng := newBatchEngine(c.model, procs)
			defer eng.Close()
			var acc gradAccumulator
			acc.Reset(len(w))
			var lossSum float64
			if n := eng.Accumulate(w, batch, &acc, &lossSum); n != len(batch) {
				t.Fatalf("%s: procs=%d processed %d tuples, want %d", c.name, procs, n, len(batch))
			}
			gi, gv := acc.Gather(1 / float64(len(batch)))
			giC := append([]int32(nil), gi...)
			gvC := append([]float64(nil), gv...)
			return giC, gvC, lossSum
		}

		gi1, gv1, loss1 := ref(1)
		for _, procs := range []int{2, 3, 4, 7} {
			gi, gv, loss := ref(procs)
			if loss != loss1 {
				t.Fatalf("%s: procs=%d loss %v != inline %v", c.name, procs, loss, loss1)
			}
			if len(gi) != len(gi1) {
				t.Fatalf("%s: procs=%d touched %d coords, inline %d", c.name, procs, len(gi), len(gi1))
			}
			for k := range gi {
				if gi[k] != gi1[k] || gv[k] != gv1[k] {
					t.Fatalf("%s: procs=%d gradient diverges at %d: (%d,%v) vs (%d,%v)",
						c.name, procs, k, gi[k], gv[k], gi1[k], gv1[k])
				}
			}
		}
	}
}

// TestTrainerProcsInvariance: identical seed and data must give bit-for-bit
// identical weights and loss regardless of the worker count — the guarantee
// that makes -procs a pure performance knob.
func TestTrainerProcsInvariance(t *testing.T) {
	for _, c := range parityCases(600, 42) {
		run := func(procs int) ([]float64, []float64) {
			tr := NewTrainer(c.model, NewSGD(0.05), 64)
			tr.Procs = procs
			defer tr.Close()
			w := make([]float64, c.model.Dim(c.ds.Features))
			if c.init != nil {
				c.init(w)
			}
			tr.Opt.Reset(len(w))
			var losses []float64
			for epoch := 0; epoch < 3; epoch++ {
				stats := tr.RunEpoch(w, SliceStream(c.ds))
				losses = append(losses, stats.AvgLoss)
			}
			return w, losses
		}
		w1, l1 := run(1)
		for _, procs := range []int{2, 4, 7} {
			w, l := run(procs)
			for i := range l1 {
				if l[i] != l1[i] {
					t.Fatalf("%s: procs=%d epoch %d loss %v != single-proc %v", c.name, procs, i+1, l[i], l1[i])
				}
			}
			for i := range w1 {
				if w[i] != w1[i] {
					t.Fatalf("%s: procs=%d weight %d = %v != single-proc %v", c.name, procs, i, w[i], w1[i])
				}
			}
		}
	}
}

// TestTrainerReuseAfterClose: Close releases the pool, but a reused trainer
// must transparently rebuild it on the next epoch.
func TestTrainerReuseAfterClose(t *testing.T) {
	ds := binaryData(200, data.OrderShuffled, 43)
	m := SVM{}
	tr := NewTrainer(m, NewSGD(0.05), 32)
	tr.Procs = 4
	w := make([]float64, m.Dim(ds.Features))
	tr.RunEpoch(w, SliceStream(ds))
	tr.Close()
	stats := tr.RunEpoch(w, SliceStream(ds))
	tr.Close()
	if stats.Tuples != 200 {
		t.Fatalf("epoch after Close consumed %d tuples, want 200", stats.Tuples)
	}
}

// TestGradAccumulatorDedup: repeated indices within one batch must collapse
// to a single optimizer-visible coordinate (so Adam's per-coordinate state
// steps once per batch), with contributions summed in insertion order.
func TestGradAccumulatorDedup(t *testing.T) {
	var acc gradAccumulator
	acc.Reset(10)
	acc.Add([]int32{3, 5, 3}, []float64{1, 2, 3})
	acc.Add([]int32{5, 1}, []float64{4, 8})
	gi, gv := acc.Gather(0.5)
	want := map[int32]float64{3: 2, 5: 3, 1: 4}
	if len(gi) != 3 {
		t.Fatalf("touched %d coords, want 3: %v", len(gi), gi)
	}
	for k, idx := range gi {
		if gv[k] != want[idx] {
			t.Fatalf("coord %d = %v, want %v", idx, gv[k], want[idx])
		}
	}
	acc.Clear()
	if gi, gv := acc.Gather(1); len(gi) != 0 || len(gv) != 0 {
		t.Fatalf("accumulator not empty after Clear: %v %v", gi, gv)
	}
}
