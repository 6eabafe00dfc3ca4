package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/ml"
	"corgipile/internal/shuffle"
)

// modelGoldenData returns a model's dense and sparse golden datasets. Dense
// sets carry exact zeros, which the gradients skip. Classification sparse
// sets come from the generator's sparse mode; the regression one drops every
// fourth feature of a dense set, since the generator has no sparse mode for
// regression.
func modelGoldenData(model string) (dense, sparse *data.Dataset) {
	cfg := data.SyntheticConfig{Tuples: 160, Features: 12, Classes: 2,
		Order: data.OrderClustered, Seed: 81}
	gen := data.SyntheticBinary
	switch model {
	case "softmax":
		cfg.Classes = 4
		gen = data.SyntheticMulticlass
	case "linreg":
		gen = data.SyntheticRegression
	}
	dense = gen(cfg)
	for i := range dense.Tuples {
		if i%3 == 0 {
			dense.Tuples[i].Dense[i%cfg.Features] = 0
		}
	}
	if model == "linreg" {
		cfg.Seed = 82
		sparse = gen(cfg)
		for i := range sparse.Tuples {
			t := &sparse.Tuples[i]
			for j, v := range t.Dense {
				if j%4 != 3 {
					t.SparseIdx = append(t.SparseIdx, int32(j))
					t.SparseVal = append(t.SparseVal, v)
				}
			}
			t.Dense = nil
		}
		return dense, sparse
	}
	cfg.Sparse, cfg.NNZ, cfg.Seed = true, 5, 82
	return dense, gen(cfg)
}

// modelGoldenModel returns the named model and, for the FM, a weight
// initializer (zero factors would have zero interaction gradients).
func modelGoldenModel(name string, ds *data.Dataset) (ml.Model, func([]float64)) {
	switch name {
	case "svm":
		return ml.SVM{}, nil
	case "lr":
		return ml.LogisticRegression{}, nil
	case "linreg":
		return ml.LinearRegression{}, nil
	case "softmax":
		return ml.Softmax{Classes: ds.Classes}, nil
	}
	fm := ml.FactorizationMachine{Factors: 4}
	return fm, func(w []float64) { fm.InitWeights(w, ds.Features, 0.1, rand.New(rand.NewSource(17))) }
}

// modelGoldenRun trains one cell of the matrix through Run (CorgiPile, 4
// epochs, TrainEval and Diag on) and feeds the Float64bits of the final
// weights and of every epoch's AvgLoss, TrainAcc and GradNorm into h.
func modelGoldenRun(t *testing.T, h hash.Hash, model string, ds *data.Dataset, opt string, batch int) {
	t.Helper()
	m, init := modelGoldenModel(model, ds)
	var o ml.Optimizer
	switch opt {
	case "sgd":
		o = ml.NewSGD(0.02)
	case "sgd_l2":
		s := ml.NewSGD(0.02)
		s.L2 = 1e-3
		o = s
	case "adam":
		o = ml.NewAdam(0.01)
	}
	st, err := shuffle.New(shuffle.KindCorgiPile, shuffle.NewMemSource(ds, 20),
		shuffle.Options{Seed: 5, BufferFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{
		Strategy:    st,
		Model:       m,
		Opt:         o,
		Features:    ds.Features,
		Epochs:      4,
		BatchSize:   batch,
		TrainEval:   ds,
		InitWeights: init,
		Diag:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, w := range res.W {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("%s/%s/batch=%d: weight %v; a golden over a diverged run pins nothing", model, opt, batch, w)
		}
		put(w)
	}
	for i, p := range res.Points {
		put(p.AvgLoss)
		put(p.TrainAcc)
		put(res.Diag[i].GradNorm)
	}
}

// TestModelGolden pins the training of every model but the MLP
// (TestMLPGolden has its own matrix) bit for bit: final weights and the
// per-epoch loss, accuracy and gradient-norm columns, over data layout ×
// optimizer (L2 and Adam read the touched set) × batch size (1 steps per
// tuple, 64 goes through the mini-batch accumulator). One SHA-256 per model ×
// layout covers its six runs. A change that moves one of these literals
// changes what training computes; CORGI_PRINT_GOLDEN=1 prints the observed
// hashes for a deliberate recapture.
func TestModelGolden(t *testing.T) {
	for _, model := range []string{"svm", "lr", "linreg", "softmax", "fm"} {
		dense, sparse := modelGoldenData(model)
		for _, layout := range []struct {
			name string
			ds   *data.Dataset
		}{{"dense", dense}, {"sparse", sparse}} {
			h := sha256.New()
			for _, opt := range []string{"sgd", "sgd_l2", "adam"} {
				for _, batch := range []int{1, 64} {
					modelGoldenRun(t, h, model, layout.ds, opt, batch)
				}
			}
			name := model + "/" + layout.name
			got := hex.EncodeToString(h.Sum(nil))
			if os.Getenv("CORGI_PRINT_GOLDEN") != "" {
				fmt.Printf("\t%q: %q,\n", name, got)
				continue
			}
			if got != modelGolden[name] {
				t.Errorf("%s: got %s want %s", name, got, modelGolden[name])
			}
		}
	}
}

var modelGolden = map[string]string{
	"svm/dense":      "57e25297928d43fc86ad28e52ca281235f870ba9bb79f4d7881489313b31b399",
	"svm/sparse":     "54df851b1cb354125f7dab007e273a2d1390144565af20481ca7ad2f608f9ede",
	"lr/dense":       "bb7e77244d85acdbccc42e5e9c1f4633ae9721a51f70367497a384fc224ee4b7",
	"lr/sparse":      "6a49038424cbd70912415aa04c0b86b19b1320a37208001a5cef1d192713d116",
	"linreg/dense":   "decb01d30374e206895269c50da142389f1bc48fd6f4fcefd87873ea68405365",
	"linreg/sparse":  "d343263e0c4a72ae94fcf5afa8bd20d70827c4fa99e7291ec20bef80652e6a60",
	"softmax/dense":  "5dc0069a3f7d093e293518167681636867d1e19314314a938214253058725937",
	"softmax/sparse": "b362f3936e0868364ca86ec4d125f26c8088e83d2f8dc9dd3fa578211fb28891",
	"fm/dense":       "a6c9dbc0aa5130f74460e35a789f40cbd99e7f1ec8b0f5efae4661d513703c2c",
	"fm/sparse":      "be4f98bc3fbc070975da608f91770fd68f389f6e2db9f3af56b5f5a09d49e197",
}
