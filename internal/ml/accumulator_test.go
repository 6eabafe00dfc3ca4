package ml

import (
	"math/rand"
	"testing"

	"corgipile/internal/data"
)

// TestGradIntoMatchesGradWS: the mini-batch loop adds an MLP tuple's
// gradient straight into the accumulator (gradInto); every other model goes
// through the (gi, gv) log (Add(GradWS(...))). Over a 256-tuple batch the
// two must leave bit-for-bit the same accumulated gradient, touched order
// and loss sum, on dense and sparse data at a hidden width that leaves
// remainder rows past the four-row kernel.
func TestGradIntoMatchesGradWS(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		const seed = 41
		ds := data.SyntheticMulticlass(data.SyntheticConfig{
			Tuples: 256, Features: 24, Classes: 4, Sparse: sparse, NNZ: 9,
			Order: data.OrderShuffled, Seed: seed})
		m := MLP{Classes: 4, Hidden: 30}
		w := make([]float64, m.Dim(ds.Features))
		m.InitWeights(w, ds.Features, rand.New(rand.NewSource(seed)))

		accumulate := func(direct bool) ([]int32, []float64, float64) {
			var (
				ws      Workspace
				acc     gradAccumulator
				gi      []int32
				gv      []float64
				lossSum float64
			)
			acc.Reset(len(w))
			for i := 0; i < ds.Len(); i++ {
				if direct {
					lossSum += m.gradInto(&ws, w, ds.At(i), &acc)
					continue
				}
				var loss float64
				loss, gi, gv = GradWS(m, &ws, w, ds.At(i), gi[:0], gv[:0])
				lossSum += loss
				acc.Add(gi, gv)
			}
			gi, gv = acc.Gather(1 / float64(ds.Len()))
			return append([]int32(nil), gi...), append([]float64(nil), gv...), lossSum
		}

		giD, gvD, lossD := accumulate(true)
		giL, gvL, lossL := accumulate(false)
		if lossD != lossL {
			t.Fatalf("sparse=%v: gradInto loss sum %v != GradWS %v", sparse, lossD, lossL)
		}
		if len(giD) != len(giL) {
			t.Fatalf("sparse=%v: gradInto touched %d coords, GradWS %d", sparse, len(giD), len(giL))
		}
		for k := range giD {
			if giD[k] != giL[k] || gvD[k] != gvL[k] {
				t.Fatalf("sparse=%v: gradient diverges at %d: gradInto (%d,%v), GradWS (%d,%v)",
					sparse, k, giD[k], gvD[k], giL[k], gvL[k])
			}
		}
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
