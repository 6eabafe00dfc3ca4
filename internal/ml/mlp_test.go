package ml

import (
	"math"
	"math/rand"
	"testing"

	"corgipile/internal/data"
)

// TestHiddenLayerMatchesDot: every hidden activation equals the
// one-row-at-a-time Dot form bit for bit, on whichever loop the tuple takes.
// Gap-free tuples (indices exactly 0…n−1, shorter than, equal to and longer
// than features) take the dense loop; unsorted or repeated indices must not,
// even when the last index is n−1.
func TestHiddenLayerMatchesDot(t *testing.T) {
	const features, hidden = 8, 30 // seven four-row passes and two Dot rows
	rng := rand.New(rand.NewSource(3))
	m := MLP{Classes: 3, Hidden: hidden}
	w := make([]float64, m.Dim(features))
	m.InitWeights(w, features, rng)
	vals := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	seq := func(n int) []int32 {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		return idx
	}
	withZero := vals(features)
	withZero[3] = 0
	tuples := map[string]data.Tuple{
		"dense":        {Dense: vals(features)},
		"dense long":   {Dense: vals(features + 2)},
		"gap-free":     {SparseIdx: seq(features), SparseVal: vals(features)},
		"gap-free 0.0": {SparseIdx: seq(features), SparseVal: withZero},
		"prefix":       {SparseIdx: seq(5), SparseVal: vals(5)},
		"past F":       {SparseIdx: seq(features + 2), SparseVal: vals(features + 2)},
		"empty":        {SparseIdx: []int32{}, SparseVal: []float64{}},
		"holes":        {SparseIdx: []int32{0, 2, 5, 7}, SparseVal: vals(4)},
		"unsorted":     {SparseIdx: []int32{1, 0, 2, 3}, SparseVal: vals(4)},
		"repeated":     {SparseIdx: []int32{0, 2, 2, 3}, SparseVal: vals(4)},
	}
	h := make([]float64, hidden)
	for name, tp := range tuples {
		hiddenLayer(h, w, &tp, features)
		for j := range h {
			wj := w[j*(features+1) : (j+1)*(features+1)]
			if want := relu(tp.Dot(wj[:features]) + wj[features]); math.Float64bits(h[j]) != math.Float64bits(want) {
				t.Errorf("%s: h[%d] = %v, the Dot form gives %v", name, j, h[j], want)
			}
		}
	}
}
