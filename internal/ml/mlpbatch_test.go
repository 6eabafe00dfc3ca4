package ml

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"corgipile/internal/data"
)

// gradBatchTuples returns n tuples of features columns in every in-row
// layout gradBatch tells apart: dense rows with stored zeros, short dense
// rows, full rows and prefixes stored sparse with indices 0…k−1 (zeros
// stored), holes, and unsorted or repeated indices.
func gradBatchTuples(rng *rand.Rand, n, features, classes int) []data.Tuple {
	vals := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			if rng.Intn(5) > 0 {
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	seq := func(k int) []int32 {
		idx := make([]int32, k)
		for i := range idx {
			idx[i] = int32(i)
		}
		return idx
	}
	ts := make([]data.Tuple, n)
	for i := range ts {
		t := data.Tuple{ID: int64(i), Label: float64(rng.Intn(classes))}
		switch rng.Intn(8) {
		case 0:
			t.Dense = vals(features)
		case 1:
			t.Dense = vals(rng.Intn(features + 1))
		case 2, 3:
			t.SparseIdx = seq(features)
		case 4:
			t.SparseIdx = seq(rng.Intn(features + 1))
		case 5: // holes
			for c := 0; c < features; c++ {
				if rng.Intn(3) > 0 {
					t.SparseIdx = append(t.SparseIdx, int32(c))
				}
			}
		case 6: // unsorted
			t.SparseIdx = seq(features)
			rng.Shuffle(features, func(a, b int) { t.SparseIdx[a], t.SparseIdx[b] = t.SparseIdx[b], t.SparseIdx[a] })
			t.SparseIdx = t.SparseIdx[:1+rng.Intn(features)]
		case 7: // repeated
			for range 1 + rng.Intn(features) {
				t.SparseIdx = append(t.SparseIdx, int32(rng.Intn(features)))
			}
		}
		if t.Dense == nil {
			t.SparseIdx = append([]int32{}, t.SparseIdx...) // non-nil even when empty
			t.SparseVal = vals(len(t.SparseIdx))
		}
		ts[i] = t
	}
	return ts
}

// holesFreeMix returns n tuples of features columns in the layouts that
// take gradBatch's lane path for W1: dense rows with stored zeros, short
// dense rows, and full rows and short prefixes stored sparse with indices
// 0…k−1 (zeros stored), every other one of them carrying data.PrefixIdx as
// a decoded table's rows do. Values are multiples of 1/8 in [−15.25, 15.875], so
// encodeGradBatchInput takes them.
func holesFreeMix(rng *rand.Rand, n, features, classes int) []data.Tuple {
	vals := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			if rng.Intn(5) > 0 {
				v[i] = float64(rng.Intn(250)-122) / 8
			}
		}
		return v
	}
	ts := make([]data.Tuple, n)
	for i := range ts {
		t := data.Tuple{ID: int64(i), Label: float64(rng.Intn(classes))}
		k := features
		if rng.Intn(2) == 0 {
			k = rng.Intn(features + 1)
		}
		if rng.Intn(2) == 0 {
			t.Dense = vals(k)
		} else {
			t.SparseIdx = make([]int32, k)
			for c := range t.SparseIdx {
				t.SparseIdx[c] = int32(c)
			}
			if i%2 == 0 { // as a decoded table stores it
				t.SparseIdx = data.PrefixIdx(k)
			}
			t.SparseVal = vals(k)
		}
		ts[i] = t
	}
	return ts
}

// nanX86 is the NaN x86 produces itself (0/0, ∞−∞); see laneSpecials.
var nanX86 = math.Float64frombits(0xFFF8000000000000)

// withNonfinite returns a copy of ts in which the tuples at the given
// positions carry +Inf, −Inf and NaN in turn, at a coordinate they store.
func withNonfinite(ts []data.Tuple, at ...int) []data.Tuple {
	ts = slices.Clone(ts)
	for q, i := range at {
		t := &ts[i]
		vals := slices.Clone(t.Dense)
		if t.IsSparse() {
			vals = slices.Clone(t.SparseVal)
		}
		if len(vals) == 0 {
			t.SparseIdx, vals = []int32{0}, []float64{0}
		}
		vals[(7*q)%len(vals)] = []float64{math.Inf(1), math.Inf(-1), nanX86}[q%3]
		if t.IsSparse() {
			t.SparseVal = vals
		} else {
			t.Dense = vals
		}
	}
	return ts
}

// outOfRowTuples returns tuples with an entry outside their W1 row, none of
// them as the last index alone would show: an unsorted tuple whose first
// index is past features, the bias column itself, a gap-free run past
// features, and a dense row longer than features.
func outOfRowTuples(features int) []data.Tuple {
	f := int32(features)
	return []data.Tuple{
		{Label: 1, SparseIdx: []int32{f + 1, 0, 3}, SparseVal: []float64{0.5, -1.25, 2}},
		{Label: 0, SparseIdx: []int32{0, f, 2}, SparseVal: []float64{1.5, 0.25, -0.75}},
		{Label: 2, SparseIdx: []int32{0, 1, 2, 3, 4, 5, 6, 7, f, f + 1}[:features+2],
			SparseVal: []float64{1, -1, 0.5, 0, 2, -0.5, 0.25, 1.5, 0.75, -2}[:features+2]},
		{Label: 3, Dense: []float64{0.5, 0, -1, 2, 0.25, -0.5, 1, 0, 3, -2}[:features+2]},
	}
}

// checkGradBatch feeds ts to gradBatch in batches of the given sizes (the
// last one takes what is left) and, tuple after tuple, to backward into a
// second accumulator: after every batch the losses, every accumulator value,
// every mark and the touched order must agree bit for bit. After odd batches
// both accumulators are cleared; after even ones the next batch starts on
// what is there, as when a mini-batch longer than maxGradBatch goes in
// several calls.
func checkGradBatch(m MLP, w []float64, ts []data.Tuple, sizes []int) error {
	var (
		ws, seqWS Workspace
		acc, seq  gradAccumulator
	)
	acc.Reset(len(w))
	seq.Reset(len(w))
	d := gradDest{acc: &seq}
	for b := 0; len(ts) > 0; b++ {
		n := min(sizes[b%len(sizes)], len(ts))
		batch := ts[:n]
		ts = ts[n:]
		losses := m.gradBatch(&ws, w, batch, &gradDest{acc: &acc})
		for i := range batch {
			want := m.backward(&seqWS, w, &batch[i], &d)
			if math.Float64bits(losses[i]) != math.Float64bits(want) {
				return fmt.Errorf("batch %d, tuple %d: loss %v, backward gives %v", b, i, losses[i], want)
			}
		}
		for c := range w {
			if math.Float64bits(acc.acc[c]) != math.Float64bits(seq.acc[c]) {
				return fmt.Errorf("batch %d: acc[%d] = %v, backward gives %v", b, c, acc.acc[c], seq.acc[c])
			}
			if acc.mark[c] != seq.mark[c] {
				return fmt.Errorf("batch %d: mark[%d] = %v, backward gives %v", b, c, acc.mark[c], seq.mark[c])
			}
		}
		if !slices.Equal(acc.touched, seq.touched) {
			return fmt.Errorf("batch %d: touched order differs from backward's", b)
		}
		if b%2 == 1 {
			acc.Clear()
			seq.Clear()
		}
	}
	return nil
}

// overflowed returns w with two W2 weights of hidden unit 0 at ±1e308: a
// tuple with h[0] past about 1.8 gets infinite logits, NaN probabilities and
// non-finite deltas, the others stay finite.
func overflowed(m MLP, w []float64, features int) []float64 {
	w = slices.Clone(w)
	off := m.Hidden * (features + 1)
	w[off] = 1e308
	w[off+m.Hidden+1] = -1e308
	return w
}

// infinite returns w with the W2 weight of hidden unit 0 in class 1 at −Inf:
// a tuple with h[0] > 0 gets a logit of −Inf, so a probability of exactly 0
// and, unless its label is 1, an output delta of 0 beside nonzero ones,
// which the hidden deltas must skip (0·−Inf is NaN); a tuple with h[0] = 0
// gets a NaN logit.
func infinite(m MLP, w []float64, features int) []float64 {
	w = slices.Clone(w)
	w[m.Hidden*(features+1)+m.Hidden+1] = math.Inf(-1)
	return w
}

// weightVariants returns w, overflowed(w) and infinite(w) by name.
func weightVariants(m MLP, w []float64, features int) map[string][]float64 {
	return map[string][]float64{"finite": w, "overflowed": overflowed(m, w, features), "infinite": infinite(m, w, features)}
}

// TestGradBatchMatchesBackward: gradBatch leaves the accumulator exactly as
// backward called tuple after tuple does, on every layout, at batch sizes
// from 1 to 64 with a partial tail, through the out-of-row fallback, and
// with weights whose deltas overflow or skip an infinite weight, on every
// kernel tier.
func TestGradBatchMatchesBackward(t *testing.T) {
	forEachTier(t, testGradBatchMatchesBackward)
}

func testGradBatchMatchesBackward(t *testing.T) {
	const features, classes = 8, 4
	rng := rand.New(rand.NewSource(41))
	ts := gradBatchTuples(rng, 300, features, classes)
	for i, o := range outOfRowTuples(features) {
		pos := 50 + 60*i
		ts = append(ts[:pos], append([]data.Tuple{o}, ts[pos:]...)...)
	}
	sizes := [][]int{{1}, {2}, {3}, {4}, {5}, {8}, {13}, {64}, {1, 7, 64, 2, 30}}
	for _, hidden := range []int{30, 5} {
		m := MLP{Classes: classes, Hidden: hidden}
		w := make([]float64, m.Dim(features))
		m.InitWeights(w, features, rng)
		for name, w := range weightVariants(m, w, features) {
			for _, s := range sizes {
				if err := checkGradBatch(m, w, ts, s); err != nil {
					t.Errorf("hidden=%d %s sizes=%v: %v", hidden, name, s, err)
				}
			}
		}
	}

	// Tuples with holes carrying ±Inf and NaN: their batches scatter the
	// W1 adds of the tuples the ReLU lets through, and nothing else.
	m := MLP{Classes: classes, Hidden: 30}
	w := make([]float64, m.Dim(features))
	m.InitWeights(w, features, rng)
	holes := withNonfinite(gradBatchTuples(rng, 200, features, classes), 10, 100, 150)
	for _, s := range [][]int{{64}, {13}} {
		if err := checkGradBatch(m, w, holes, s); err != nil {
			t.Errorf("holes with ±Inf and NaN sizes=%v: %v", s, err)
		}
	}

	// A holes-free mix, whose batches add their W1 rows on gemvT, at
	// widths past one AVX-512 block of lanes and off a multiple of four;
	// the batches holding a tuple with ±Inf or NaN fall back to backward.
	const mixFeatures, mixClasses = 37, 10
	mix := withNonfinite(holesFreeMix(rng, 320, mixFeatures, mixClasses), 70, 150, 290)
	for _, hidden := range []int{33, 32} {
		m := MLP{Classes: mixClasses, Hidden: hidden}
		w := make([]float64, m.Dim(mixFeatures))
		m.InitWeights(w, mixFeatures, rng)
		for name, w := range weightVariants(m, w, mixFeatures) {
			for _, s := range [][]int{{64}, {64, 1, 63, 64}} {
				if err := checkGradBatch(m, w, mix, s); err != nil {
					t.Errorf("mix hidden=%d %s sizes=%v: %v", hidden, name, s, err)
				}
			}
		}
		// The clean batches took the lane path, and the others did not.
		var ws Workspace
		for lo := 0; lo < len(mix); lo += 64 {
			batch := mix[lo : lo+64]
			ws.layout = ws.layout[:0]
			for i := range batch {
				l, _ := layoutOf(&batch[i], mixFeatures)
				ws.layout = append(ws.layout, l)
			}
			ws.loss = make([]float64, len(batch))
			clean := lo/64 != 1 && lo/64 != 2 && lo/64 != 4
			if got := m.stage(&ws, w, batch, mixFeatures, false); got != clean {
				t.Errorf("mix hidden=%d batch at %d: stage reports finite %v, want %v", hidden, lo, got, clean)
			}
		}
	}
}

// TestMiniBatchMatchesBackward: the trainer's mini-batch loop over an MLP
// takes the same steps as backward into the accumulator, tuple after tuple,
// with a step every batch. Its stream hands out one Tuple it overwrites on
// every call, as MRS and Sliding-Window do, so the trainer must copy each
// header it holds for gradBatch. Batch 300 spans two gradBatch calls.
func TestMiniBatchMatchesBackward(t *testing.T) {
	const features, classes = 8, 4
	rng := rand.New(rand.NewSource(43))
	ts := gradBatchTuples(rng, 700, features, classes)
	m := MLP{Classes: classes, Hidden: 30}
	w0 := make([]float64, m.Dim(features))
	m.InitWeights(w0, features, rng)
	for _, batch := range []int{2, 16, 64, 300} {
		w := slices.Clone(w0)
		tr := NewTrainer(m, NewSGD(0.05), batch)
		tr.Opt.Reset(len(w))
		var cur data.Tuple
		pos := 0
		stats := tr.RunEpoch(w, func() (*data.Tuple, bool) {
			cur = data.Tuple{Label: -7} // what a producer's next call leaves
			if pos >= len(ts) {
				return nil, false
			}
			cur = ts[pos]
			pos++
			return &cur, true
		})

		want := slices.Clone(w0)
		opt := NewSGD(0.05)
		opt.Reset(len(want))
		var (
			ws      Workspace
			acc     gradAccumulator
			lossSum float64
		)
		acc.Reset(len(want))
		d := gradDest{acc: &acc}
		for lo := 0; lo < len(ts); lo += batch {
			hi := min(lo+batch, len(ts))
			for i := lo; i < hi; i++ {
				lossSum += m.backward(&ws, want, &ts[i], &d)
			}
			gi, gv := acc.Gather(1 / float64(hi-lo))
			opt.Step(want, gi, gv)
			acc.Clear()
		}
		if got, want := stats.AvgLoss, lossSum/float64(len(ts)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("batch %d: AvgLoss %v, backward gives %v", batch, got, want)
		}
		for c := range w {
			if math.Float64bits(w[c]) != math.Float64bits(want[c]) {
				t.Fatalf("batch %d: w[%d] = %v, backward gives %v", batch, c, w[c], want[c])
			}
		}
	}
}

// gradBatchInput decodes a fuzz input: an MLP shape, a weight seed and
// flags, batch sizes, and a stream of tuples. Layout, per byte: features
// 1+b%24, hidden 1+b%32, classes 2+b%4, batch 1+b%64, weight seed, flags
// (bit 0: overflowed weights, else bit 1: infinite ones; bit 2: value
// bytes 0x80, 0x81 and 0x82 read as +Inf, −Inf and NaN); then tuples, each
// a kind byte (kind%3: 0 dense, 1 gap-free 0…n−1, 2 sparse with explicit
// indices), a label byte, a count byte n = b%(features+3), the indices
// (kind 2 only, each b%(features+3)) and n values (int8/8). Missing bytes
// read as 0.
func gradBatchInput(b []byte) (m MLP, features int, w []float64, ts []data.Tuple, batch int) {
	pos := 0
	next := func() byte {
		if pos >= len(b) {
			pos++
			return 0
		}
		pos++
		return b[pos-1]
	}
	features = 1 + int(next())%24
	m = MLP{Hidden: 1 + int(next())%32, Classes: 2 + int(next())%4}
	batch = 1 + int(next())%64
	seed, flags := next(), next()
	w = make([]float64, m.Dim(features))
	m.InitWeights(w, features, rand.New(rand.NewSource(int64(seed))))
	switch {
	case flags&1 != 0:
		w = overflowed(m, w, features)
	case flags&2 != 0:
		w = infinite(m, w, features)
	}
	for pos < len(b) && len(ts) < 256 {
		kind, label, n := next()%3, next(), int(next())%(features+3)
		t := data.Tuple{Label: float64(int(label) % m.Classes)}
		switch kind {
		case 0:
			t.Dense = make([]float64, n)
		case 1:
			t.SparseIdx = make([]int32, n)
			for i := range t.SparseIdx {
				t.SparseIdx[i] = int32(i)
			}
		case 2:
			t.SparseIdx = make([]int32, n)
			for i := range t.SparseIdx {
				t.SparseIdx[i] = int32(int(next()) % (features + 3))
			}
		}
		vals := t.Dense
		if kind != 0 {
			t.SparseVal = make([]float64, n)
			vals = t.SparseVal
		}
		for i := range vals {
			if v := int8(next()); flags&4 != 0 && v <= -126 {
				vals[i] = [...]float64{math.Inf(1), math.Inf(-1), nanX86}[int(v)+128]
			} else {
				vals[i] = float64(v) / 8
			}
		}
		ts = append(ts, t)
	}
	return m, features, w, ts, batch
}

// encodeGradBatchInput is gradBatchInput's inverse for the fuzz seeds: each
// value must be a multiple of 1/8 in [−16, 16), or with flags bit 2 ±Inf,
// NaN or one in [−15.625, 16).
func encodeGradBatchInput(features, hidden, classes, batch int, flags byte, ts []data.Tuple) []byte {
	b := []byte{byte(features - 1), byte(hidden - 1), byte(classes - 2), byte(batch - 1), 17, flags}
	for _, t := range ts {
		vals := t.Dense
		switch {
		case !t.IsSparse():
			b = append(b, 0, byte(t.Label), byte(len(t.Dense)))
		case gapFree(t.SparseIdx):
			b = append(b, 1, byte(t.Label), byte(len(t.SparseIdx)))
			vals = t.SparseVal
		default:
			b = append(b, 2, byte(t.Label), byte(len(t.SparseIdx)))
			for _, idx := range t.SparseIdx {
				b = append(b, byte(idx))
			}
			vals = t.SparseVal
		}
		for _, v := range vals[:t.NNZ()] {
			switch {
			case math.IsInf(v, 1):
				b = append(b, 0x80)
			case math.IsInf(v, -1):
				b = append(b, 0x81)
			case math.IsNaN(v):
				b = append(b, 0x82)
			default:
				b = append(b, byte(int8(v*8)))
			}
		}
	}
	return b
}

// goldenLayout returns n tuples of one layout of core.TestMLPGolden's
// matrix, values multiples of 1/8 in [−16, 16): "dense" with exact zeros;
// "sparse" with 6 random indices; "holes" (every 7th feature dropped);
// "full" rows stored sparse with stored zeros and prefixes. Sparse and holes
// carry a tuple with indices at and past features, full one running
// 0…features+1.
func goldenLayout(rng *rand.Rand, kind string, n, features, classes int) []data.Tuple {
	val := func() float64 { return float64(rng.Intn(256)-128) / 8 }
	ts := make([]data.Tuple, n)
	for i := range ts {
		t := data.Tuple{Label: float64(rng.Intn(classes))}
		row := make([]float64, features)
		for c := range row {
			row[c] = val()
		}
		switch kind {
		case "dense":
			if i%3 == 0 {
				row[i%features] = 0
			}
			t.Dense = row
		case "sparse":
			for _, c := range rng.Perm(features)[:6] {
				t.SparseIdx = append(t.SparseIdx, int32(c))
			}
			slices.Sort(t.SparseIdx)
			for range t.SparseIdx {
				t.SparseVal = append(t.SparseVal, val())
			}
		case "holes", "full", "shared":
			full := kind != "holes"
			k := features
			if full && i%3 == 0 {
				row[i%features] = 0
			} else if full && i%5 == 1 {
				k = 1 + i%(features-1)
			}
			for c, v := range row[:k] {
				if full || c%7 != 6 {
					t.SparseIdx = append(t.SparseIdx, int32(c))
					t.SparseVal = append(t.SparseVal, v)
				}
			}
		}
		ts[i] = t
	}
	f := int32(features)
	switch kind {
	case "sparse", "holes":
		ts[n/2] = data.Tuple{Label: float64(2 % classes), SparseIdx: []int32{1, f, f + 2}, SparseVal: []float64{0.5, -1.25, 2}}
	case "full", "shared":
		p := &ts[n/2]
		p.SparseIdx = append(p.SparseIdx[:features:features], f, f+1)
		p.SparseVal = append(p.SparseVal[:features:features], 0.75, -0.5)
	}
	if kind == "shared" {
		sharePrefixes(ts)
	}
	return ts
}

// sharePrefixes gives every sparse tuple of ts whose indices are 0…n−1 the
// shared data.PrefixIdx(n), as a decoded table image does.
func sharePrefixes(ts []data.Tuple) {
	for i := range ts {
		if t := &ts[i]; t.IsSparse() && gapFree(t.SparseIdx) {
			t.SparseIdx = data.PrefixIdx(len(t.SparseIdx))
		}
	}
}

// goldenLayouts names goldenLayout's layouts; "shared" is "full" with every
// gap-free tuple carrying data.PrefixIdx.
var goldenLayouts = []string{"dense", "sparse", "holes", "full", "shared"}

// gradBatchSeeds returns one fuzz seed per layout of core.TestMLPGolden's
// matrix (goldenLayout), at its shape (20 features, 4 classes, batch 64),
// and two more full ones, with overflowed and with infinite weights; then
// TestGradBatchMatchesBackward's holes-free mix at batch 64, once clean and
// once with ±Inf and NaN values in its second batch.
func gradBatchSeeds() [][]byte {
	const features, classes, n = 20, 4, 40
	rng := rand.New(rand.NewSource(71))
	var seeds [][]byte
	for _, kind := range goldenLayouts {
		seeds = append(seeds, encodeGradBatchInput(features, 32, classes, 64, 0, goldenLayout(rng, kind, n, features, classes)))
	}
	seeds = append(seeds,
		encodeGradBatchInput(features, 30, classes, 7, 1, goldenLayout(rng, "full", n, features, classes)),
		encodeGradBatchInput(features, 30, classes, 9, 2, goldenLayout(rng, "full", n, features, classes)))
	mix := holesFreeMix(rng, 130, features, classes)
	return append(seeds,
		encodeGradBatchInput(features, 32, classes, 64, 0, mix),
		encodeGradBatchInput(features, 32, classes, 64, 4, withNonfinite(mix, 70, 100, 120)))
}

// FuzzGradBatch holds gradBatch to backward called tuple after tuple, as
// TestGradBatchMatchesBackward does, on decoded shapes, layouts and batch
// sizes.
func FuzzGradBatch(f *testing.F) {
	for _, s := range gradBatchSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, _, w, ts, batch := gradBatchInput(b)
		if err := checkGradBatch(m, w, ts, []int{batch}); err != nil {
			t.Fatal(err)
		}
	})
}
