package ml

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"corgipile/internal/data"
)

// gradModel is one of the six models at the shape the gradient tests use,
// with the label of its task (±1 for the binary models and linear
// regression, a class index for softmax and the MLP) and how many of the
// out-of-row indices 1, features, features+2 its weights take: the GLMs'
// end at the bias, features, and softmax's last row sends features+2 past
// the end.
type gradModel struct {
	model Model
	label func(rng *rand.Rand) float64
	past  int
}

// gradModels returns the six gradModels.
func gradModels() []gradModel {
	binary := func(rng *rand.Rand) float64 { return float64(2*rng.Intn(2) - 1) }
	class := func(rng *rand.Rand) float64 { return float64(rng.Intn(4)) }
	return []gradModel{
		{LogisticRegression{}, binary, 2},
		{SVM{}, binary, 2},
		{LinearRegression{}, binary, 2},
		{Softmax{Classes: 4}, class, 2},
		{FactorizationMachine{Factors: 3}, binary, 3},
		{MLP{Classes: 4, Hidden: 5}, class, 3},
	}
}

// gradTuples returns n random tuples of features columns for c, dense and
// sparse, with stored zeros, plus the traps a gradient fold may get wrong: a
// −0 value stored dense and sparse; a tuple far along w, on which the SVM's
// hinge is flat (zero gradient) and the other models saturate; and
// core.TestMLPGolden's out-of-row tuple, indices 1, features and features+2,
// cut to the c.past indices c's weights take. Its index features lands on a
// bias, so its gradient repeats a coordinate for the GLMs and softmax.
func gradTuples(rng *rand.Rand, n, features int, w []float64, c gradModel) []data.Tuple {
	label := c.label
	ts := make([]data.Tuple, 0, n+4)
	for i := 0; i < n; i++ {
		t := data.Tuple{ID: int64(i), Label: label(rng)}
		if i%2 == 0 {
			t.Dense = make([]float64, features)
			for j := range t.Dense {
				if rng.Intn(4) > 0 {
					t.Dense[j] = rng.NormFloat64()
				}
			}
		} else {
			for j := 0; j < features; j++ {
				if rng.Intn(3) > 0 {
					t.SparseIdx = append(t.SparseIdx, int32(j))
					t.SparseVal = append(t.SparseVal, rng.NormFloat64())
				}
			}
		}
		ts = append(ts, t)
	}
	negZero := math.Copysign(0, -1)
	dense := make([]float64, features)
	dense[0], dense[1], dense[2] = 0.5, negZero, -1.25
	ts = append(ts, data.Tuple{Label: label(rng), Dense: dense})
	ts = append(ts, data.Tuple{Label: label(rng), SparseIdx: []int32{0, 2, 3}, SparseVal: []float64{1, negZero, -0.5}})

	// Along w, with the margin's sign for a label: y·margin ≫ 1.
	along := make([]float64, features)
	var m float64
	for j := range along {
		along[j] = 20 * w[j]
		m += along[j] * w[j]
	}
	y := 1.0
	if m+w[features] < 0 {
		y = -1
	}
	ts = append(ts, data.Tuple{Label: y, Dense: along})

	return append(ts, data.Tuple{Label: label(rng),
		SparseIdx: []int32{1, int32(features), int32(features) + 2}[:c.past],
		SparseVal: []float64{0.5, -1.25, 2}[:c.past]})
}

// gradWeights returns random weights for m, MLP weights at its scaled
// initialization.
func gradWeights(m Model, features int, rng *rand.Rand) []float64 {
	w := make([]float64, m.Dim(features))
	if mlp, ok := m.(MLP); ok {
		mlp.InitWeights(w, features, rng)
		return w
	}
	for i := range w {
		w[i] = rng.NormFloat64() * 0.5
	}
	return w
}

// checkGradBatchMatchesGrad feeds ts to m's gradBatch into an accumulator in
// batches of size, and tuple after tuple to Grad, folded through Add, into a
// second one: after every batch the losses, every accumulator value, every
// mark and the touched order must agree bit for bit. Into a (gi, gv)
// destination the batch must append what Grad appends tuple after tuple.
func checkGradBatchMatchesGrad(m Model, w []float64, ts []data.Tuple, size int) error {
	var (
		ws, seqWS Workspace
		acc, seq  gradAccumulator
		gi        []int32
		gv        []float64
	)
	acc.Reset(len(w))
	seq.Reset(len(w))
	for b := 0; len(ts) > 0; b++ {
		n := min(size, len(ts))
		batch := ts[:n]
		ts = ts[n:]
		losses := slices.Clone(m.gradBatch(&ws, w, batch, &gradDest{acc: &acc}))
		log := gradDest{}
		logLosses := slices.Clone(m.gradBatch(&ws, w, batch, &log))
		var wantGI []int32
		var wantGV []float64
		for i := range batch {
			var loss float64
			loss, gi, gv = Grad(m, &seqWS, w, &batch[i], gi[:0], gv[:0])
			seq.Add(gi, gv)
			wantGI, wantGV = append(wantGI, gi...), append(wantGV, gv...)
			if math.Float64bits(losses[i]) != math.Float64bits(loss) ||
				math.Float64bits(logLosses[i]) != math.Float64bits(loss) {
				return fmt.Errorf("batch %d, tuple %d: losses %v and %v, Grad gives %v", b, i, losses[i], logLosses[i], loss)
			}
		}
		if !slices.Equal(log.gi, wantGI) || !bitsEqual(log.gv, wantGV) {
			return fmt.Errorf("batch %d: (gi, gv) entries differ from Grad's", b)
		}
		for c := range w {
			if math.Float64bits(acc.acc[c]) != math.Float64bits(seq.acc[c]) {
				return fmt.Errorf("batch %d: acc[%d] = %v, Grad gives %v", b, c, acc.acc[c], seq.acc[c])
			}
			if acc.mark[c] != seq.mark[c] {
				return fmt.Errorf("batch %d: mark[%d] = %v, Grad gives %v", b, c, acc.mark[c], seq.mark[c])
			}
		}
		if !slices.Equal(acc.touched, seq.touched) {
			return fmt.Errorf("batch %d: touched order differs from Grad's", b)
		}
		acc.Clear()
		seq.Clear()
	}
	return nil
}

// bitsEqual reports whether a and b hold the same float64 bits.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestGradBatchMatchesGrad: for every model, gradBatch over a batch leaves
// the accumulator exactly as Grad's entries folded through Add tuple after
// tuple do, and appends Grad's entries to a (gi, gv) destination, on the
// trap tuples of gradTuples, at batch sizes 1, 3 and 64, on every kernel
// tier. It extends TestGradBatchMatchesBackward from the MLP to all six.
func TestGradBatchMatchesGrad(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		const features = 6
		for _, c := range gradModels() {
			rng := rand.New(rand.NewSource(61))
			w := gradWeights(c.model, features, rng)
			ts := gradTuples(rng, 60, features, w, c)
			if c.model.Name() == "svm" {
				var ws Workspace
				if loss, gi, _ := Grad(c.model, &ws, w, &ts[len(ts)-2], nil, nil); loss != 0 || len(gi) != 0 {
					t.Fatalf("svm: the tuple along w has loss %v and %d entries, want a flat hinge", loss, len(gi))
				}
			}
			for _, size := range []int{1, 3, 64} {
				if err := checkGradBatchMatchesGrad(c.model, w, ts, size); err != nil {
					t.Errorf("%s size %d: %v", c.model.Name(), size, err)
				}
			}
		}
	})
}

// TestBatchOneStepsPerEntry: at batch 1, RunEpoch steps the optimizer on
// Grad's raw (gi, gv), entry by entry, tuple after tuple — not on the
// accumulator's sum, which would step a repeated coordinate once — for
// every model and optimizer, over two epochs of gradTuples' set, whose
// out-of-row tuple repeats a bias coordinate for the GLMs and softmax.
func TestBatchOneStepsPerEntry(t *testing.T) {
	const features = 6
	optimizers := []struct {
		name string
		opt  func() Optimizer
	}{
		{"sgd", func() Optimizer { return NewSGD(0.05) }},
		{"sgd_l2", func() Optimizer { o := NewSGD(0.05); o.L2 = 0.01; return o }},
		{"adam", func() Optimizer { return NewAdam(0.01) }},
	}
	for _, c := range gradModels() {
		for _, o := range optimizers {
			rng := rand.New(rand.NewSource(62))
			w0 := gradWeights(c.model, features, rng)
			ts := gradTuples(rng, 40, features, w0, c)

			w := slices.Clone(w0)
			tr := NewTrainer(c.model, o.opt(), 1)
			tr.Opt.Reset(len(w))
			want := slices.Clone(w0)
			opt := o.opt()
			opt.Reset(len(want))
			var (
				ws Workspace
				gi []int32
				gv []float64
			)
			for epoch := 0; epoch < 2; epoch++ {
				pos := 0
				stats := tr.RunEpoch(w, func() (*data.Tuple, bool) {
					if pos >= len(ts) {
						return nil, false
					}
					pos++
					return &ts[pos-1], true
				})
				var lossSum float64
				for i := range ts {
					var loss float64
					loss, gi, gv = Grad(c.model, &ws, want, &ts[i], gi[:0], gv[:0])
					lossSum += loss
					opt.Step(want, gi, gv)
				}
				opt.EndEpoch()
				if got, want := stats.AvgLoss, lossSum/float64(len(ts)); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s %s epoch %d: AvgLoss %v, Grad gives %v", c.model.Name(), o.name, epoch, got, want)
				}
				if !bitsEqual(w, want) {
					t.Fatalf("%s %s epoch %d: weights differ from Opt.Step on Grad's entries", c.model.Name(), o.name, epoch)
				}
			}
		}
	}
}
