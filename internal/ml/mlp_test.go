package ml

import (
	"math"
	"math/rand"
	"slices"
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

// classOfSoftmax is what classOf must return: the first largest of z's
// probabilities, computed on a copy.
func classOfSoftmax(z []float64) float64 {
	p := slices.Clone(z)
	softmaxProbs(p)
	return argmax(p)
}

// TestClassOf: classOf, which reads the class off the logits when they
// settle it, returns argmax(softmaxProbs(z)) where the two could part, and
// takes the logits' path (leaving z as it was) exactly where its rule says.
func TestClassOf(t *testing.T) {
	if math.Exp(0) != 1 {
		t.Fatalf("math.Exp(0) = %v, the proof needs exactly 1", math.Exp(0))
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		z    []float64
		fast bool // settled by the logits
	}{
		{"ordinary", []float64{0.5, 2, -1, 1.25}, true},
		{"tie at the max", []float64{1, 3, 3, 2}, false},
		{"tie at the max, from 0", []float64{3, 3}, false},
		{"2^-21 below, before the max", []float64{1 - 0x1p-21, 1}, false},
		{"2^-21 below, after the max", []float64{1, 1 - 0x1p-21}, false},
		{"2^-20 below", []float64{1 - 0x1p-20, 1}, true},
		{"2^-19 below, before the max", []float64{1 - 0x1p-19, 1}, true},
		{"2^-19 below, after the max", []float64{1, 1 - 0x1p-19, 0}, true},
		{"one ulp below", []float64{1 - 0x1p-53, 1}, false},
		{"NaN at 0", []float64{nan, 1, 2}, false},
		{"NaN past 0, max after it", []float64{0, nan, 1}, false},
		{"NaN last", []float64{2, 1, nan}, false},
		{"+Inf", []float64{1, inf, 0}, false},
		{"+Inf twice", []float64{inf, 1, inf}, false},
		{"-Inf beside finite", []float64{-inf, 0, -inf}, true},
		{"-Inf only", []float64{-inf, -inf}, false},
		{"-1e308 beside 1e308", []float64{-1e308, 1e308}, true},
		{"1e308 beside -1e308", []float64{1e308, -1e308, 0}, true},
		{"subnormal gap", []float64{0, 5e-324}, false},
		{"subnormal gap, max first", []float64{1e-323, 5e-324}, false},
		{"subnormals far apart", []float64{2.5e-310, -2.5e-310}, false},
		{"±0", []float64{math.Copysign(0, -1), 0}, false},
	}
	for _, c := range cases {
		want := classOfSoftmax(c.z)
		z := slices.Clone(c.z)
		if got := classOf(z); got != want {
			t.Errorf("%s %v: classOf %v, argmax(softmaxProbs) %v", c.name, c.z, got, want)
		}
		if fast := sameBits(z, c.z) < 0; fast != c.fast {
			t.Errorf("%s %v: settled by the logits = %v, want %v", c.name, c.z, fast, c.fast)
		}
	}
}

// argmaxLogit reads a FuzzArgmaxLogits logit from two bytes: s names one of
// laneSpecials (s ≥ 246) or a base and a scale, and m is int8 steps of that
// scale from the base, so logits land a few ulps, about 2⁻²⁰, or far apart.
func argmaxLogit(s, m byte) float64 {
	if int(s) >= 256-len(laneSpecials) {
		return laneSpecials[int(s)-(256-len(laneSpecials))]
	}
	scales := []float64{5e-324, 0x1p-60, 0x1p-52, 0x1p-21, 0x1p-20, 0x1p-19, 1, 0x1p20}
	bases := []float64{0, 1, -3, 1e6}
	return bases[int(s)/len(scales)%len(bases)] + float64(int8(m))*scales[int(s)%len(scales)]
}

// FuzzArgmaxLogits holds classOf to argmax(softmaxProbs(z)) over 2 to 17
// logits: the first byte sets the count, then two bytes a logit
// (argmaxLogit); missing bytes read as 0.
func FuzzArgmaxLogits(f *testing.F) {
	rng := rand.New(rand.NewSource(45))
	for range 24 {
		b := make([]byte, 1+2*rng.Intn(18))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		in := &laneInput{b: b}
		z := make([]float64, 2+int(in.byte())%16)
		for k := range z {
			z[k] = argmaxLogit(in.byte(), in.byte())
		}
		want := classOfSoftmax(z)
		if got := classOf(slices.Clone(z)); got != want {
			t.Fatalf("%v: classOf %v, argmax(softmaxProbs) %v", z, got, want)
		}
	})
}
