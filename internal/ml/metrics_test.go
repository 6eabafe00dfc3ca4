package ml

import (
	"math"
	"math/rand"
	"testing"

	"corgipile/internal/data"
)

// evalMix returns n tuples of a features-column table in every layout a
// GLM's full pass meets: rows carrying data.PrefixIdx shorter than, as long
// as and longer than a weight row, the same rows with private indices,
// sparse rows with holes and dense rows of every length. Values and labels
// span many magnitudes, so a sum taken in another order shows in its bits.
func evalMix(rng *rand.Rand, n, features int) []data.Tuple {
	val := func() float64 { return rng.NormFloat64() * math.Pow(2, float64(rng.Intn(60)-30)) }
	ts := make([]data.Tuple, n)
	for i := range ts {
		t := data.Tuple{ID: int64(i), Label: val()}
		k := rng.Intn(features + 4)
		if rng.Intn(3) > 0 {
			k = features
		}
		vals := make([]float64, k)
		for j := range vals {
			vals[j] = val()
		}
		switch r := rng.Intn(8); {
		case r < 4:
			t.SparseIdx, t.SparseVal = data.PrefixIdx(k), vals
		case r == 4:
			t.SparseIdx, t.SparseVal = append([]int32{}, data.PrefixIdx(k)...), vals
		case r == 5:
			for j := range vals {
				if j%3 != 1 {
					t.SparseIdx, t.SparseVal = append(t.SparseIdx, int32(j)), append(t.SparseVal, vals[j])
				}
			}
			if t.SparseIdx == nil {
				t.SparseIdx, t.SparseVal = []int32{}, []float64{}
			}
		default:
			t.Dense = vals
		}
		ts[i] = t
	}
	return ts
}

// The GLM full passes score four tuples at a time (margins); each margin,
// and from them Accuracy, R2 and ModelAUC, must be the per-tuple value bit
// for bit, for every GLM, on sets whose length is not a multiple of four.
func TestFullPassesMatchPerTuple(t *testing.T) {
	const features = 18
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{1, 3, 4, 5, 63, 257} {
		ts := evalMix(rng, n, features)
		ds := &data.Dataset{Task: data.TaskBinary, Features: features, Tuples: ts}
		w := make([]float64, features+1)
		for i := range w {
			w[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20))
		}
		out := make([]float64, n)
		margins(out, w, ts)
		for i := range ts {
			if want := margin(w, &ts[i]); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("n=%d tuple %d: four-wide margin %v, margin %v", n, i, out[i], want)
			}
		}
		for _, m := range []Model{LogisticRegression{}, SVM{}, LinearRegression{}} {
			correct := 0
			var mean, ssRes, ssTot float64
			scores, labels := make([]float64, n), make([]float64, n)
			for i := range ts {
				p := m.Predict(w, &ts[i])
				if (p >= 0) == (ts[i].Label >= 0) {
					correct++
				}
				mean += ts[i].Label
				scores[i], labels[i] = margin(w, &ts[i]), ts[i].Label
			}
			mean /= float64(n)
			for i := range ts {
				r := ts[i].Label - m.Predict(w, &ts[i])
				ssRes += r * r
				d := ts[i].Label - mean
				ssTot += d * d
			}
			r2 := 0.0
			if ssTot != 0 {
				r2 = 1 - ssRes/ssTot
			}
			checks := []struct {
				name      string
				got, want float64
			}{
				{"Accuracy", Accuracy(m, w, ds), float64(correct) / float64(n)},
				{"R2", R2(m, w, ds), r2},
				{"ModelAUC", ModelAUC(m, w, ds), AUC(scores, labels)},
			}
			for _, c := range checks {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Errorf("%s n=%d: %s %v, per-tuple %v", m.Name(), n, c.name, c.got, c.want)
				}
			}
		}
	}
}
