package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/ml"
	"corgipile/internal/shuffle"
)

// mlpGoldenData returns the golden matrix's four datasets: dense (with
// exact zeros, which the gradient skips), sparse, sparse with holes (every
// 7th feature dropped), and full: sparse tuples carrying every index 0…F−1,
// the shape LIBSVM gives a dense file. Both sparse and holes carry one tuple
// with indices at and past features, and full one running 0…F+1; the forward
// pass ignores those indices and the backward pass writes wherever base+idx
// lands — behaviour the golden pins as it is. Full also stores explicit
// zeros, which the sparse gradient does not skip, and short prefixes 0…k−1.
func mlpGoldenData() map[string]*data.Dataset {
	cfg := data.SyntheticConfig{Tuples: 160, Features: 20, Classes: 4,
		Order: data.OrderClustered, Seed: 71}
	dense := data.SyntheticMulticlass(cfg)
	for i := range dense.Tuples {
		if i%3 == 0 {
			dense.Tuples[i].Dense[i%cfg.Features] = 0
		}
	}

	sc := cfg
	sc.Sparse, sc.NNZ, sc.Seed = true, 6, 72
	sparse := data.SyntheticMulticlass(sc)

	holes := data.SyntheticMulticlass(data.SyntheticConfig{Tuples: 160, Features: 20,
		Classes: 4, Order: data.OrderClustered, Seed: 73})
	for i := range holes.Tuples {
		t := &holes.Tuples[i]
		for j, v := range t.Dense {
			if j%7 != 6 {
				t.SparseIdx = append(t.SparseIdx, int32(j))
				t.SparseVal = append(t.SparseVal, v)
			}
		}
		t.Dense = nil
	}

	for _, ds := range []*data.Dataset{sparse, holes} {
		f := int32(ds.Features)
		ds.Tuples[len(ds.Tuples)/2] = data.Tuple{ID: int64(len(ds.Tuples) / 2), Label: 2,
			SparseIdx: []int32{1, f, f + 2}, SparseVal: []float64{0.5, -1.25, 2}}
	}

	full := data.SyntheticMulticlass(data.SyntheticConfig{Tuples: 160, Features: 20,
		Classes: 4, Order: data.OrderClustered, Seed: 74})
	for i := range full.Tuples {
		t := &full.Tuples[i]
		n := len(t.Dense)
		switch {
		case i%3 == 0:
			t.Dense[i%n] = 0 // stored, not dropped
		case i%5 == 1:
			n = 1 + i%(n-1) // a prefix 0…k−1 with k < F
		}
		for j, v := range t.Dense[:n] {
			t.SparseIdx = append(t.SparseIdx, int32(j))
			t.SparseVal = append(t.SparseVal, v)
		}
		t.Dense = nil
	}
	past := &full.Tuples[len(full.Tuples)/2]
	past.SparseIdx = append(past.SparseIdx, int32(full.Features), int32(full.Features+1))
	past.SparseVal = append(past.SparseVal, 0.75, -0.5)
	return map[string]*data.Dataset{"dense": dense, "sparse": sparse, "holes": holes, "full": full}
}

// mlpGoldenRun trains one cell of the matrix through Run (CorgiPile, 4
// epochs, TrainEval and Diag on) and feeds the Float64bits of the final
// weights and of every epoch's AvgLoss, TrainAcc and GradNorm into h.
func mlpGoldenRun(t *testing.T, h hash.Hash, ds *data.Dataset, hidden int, opt string, batch int) {
	t.Helper()
	m := ml.MLP{Classes: ds.Classes, Hidden: hidden}
	var o ml.Optimizer
	switch opt {
	case "sgd":
		o = ml.NewSGD(0.05)
	case "sgd_l2":
		s := ml.NewSGD(0.05)
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
		InitWeights: MLPInit(m, ds.Features, 17),
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
			t.Fatalf("hidden=%d/%s/batch=%d: weight %v; a golden over a diverged run pins nothing", hidden, opt, batch, w)
		}
		put(w)
	}
	for i, p := range res.Points {
		put(p.AvgLoss)
		put(p.TrainAcc)
		put(res.Diag[i].GradNorm)
	}
}

// TestMLPGolden pins the MLP's training bit for bit — final weights and the
// per-epoch loss, accuracy and gradient-norm columns — over data layout ×
// hidden width (30 and 5 leave remainder rows past the forward pass's
// four-row kernel) × optimizer (L2 and Adam read the touched set) × batch
// size. One SHA-256 per data × hidden cell covers its nine runs. The
// literals were captured at the commit before the MLP kernel rewrite
// (DESIGN.md "Bit-exact kernels"), the full ones at the commit before the
// gap-free forward path: those rewrites and any later one must leave them
// untouched. CORGI_PRINT_GOLDEN=1 prints the observed hashes for a
// deliberate recapture.
func TestMLPGolden(t *testing.T) {
	sets := mlpGoldenData()
	for _, dsName := range []string{"dense", "sparse", "holes", "full"} {
		for _, hidden := range []int{32, 30, 5} {
			h := sha256.New()
			for _, opt := range []string{"sgd", "sgd_l2", "adam"} {
				mlpGoldenRun(t, h, sets[dsName], hidden, opt, 1)
				mlpGoldenRun(t, h, sets[dsName], hidden, opt, 64)
				// The literals were captured with this third run on two
				// gradient workers, which computed the second run's bits; it
				// stays as a repeat of the second so the literals still hold.
				mlpGoldenRun(t, h, sets[dsName], hidden, opt, 64)
			}
			name := fmt.Sprintf("%s/hidden=%d", dsName, hidden)
			got := hex.EncodeToString(h.Sum(nil))
			if os.Getenv("CORGI_PRINT_GOLDEN") != "" {
				fmt.Printf("\t%q: %q,\n", name, got)
				continue
			}
			if got != mlpGolden[name] {
				t.Errorf("%s: got %s want %s", name, got, mlpGolden[name])
			}
		}
	}
}

var mlpGolden = map[string]string{
	"dense/hidden=32":  "9d45be0eb97eff5abd7c989afcb8c3d399d699afb6c5355df21ceb63638daa56",
	"dense/hidden=30":  "728f299c7160e08b21586c5d9194473cb541fa88314536de4047e8f09d534620",
	"dense/hidden=5":   "81c96f414b14a788faa09a30f2118a280506d1592cfefecae7fe67eaafa4bef6",
	"sparse/hidden=32": "2e4a72f6498ab43887213ac7db01ea3d24e1aa627cadd8e34c3c5642ff46c3e5",
	"sparse/hidden=30": "b30a76ed9a00b57d3256c230df9b3a31a10c066282b2299e07a3e81ae52b78d5",
	"sparse/hidden=5":  "79adc9f34b7854d292831380549eeb56cee1b54791fe553764422e4619edd38e",
	"holes/hidden=32":  "65ce7ed2731eadf55a892a8af3f14c80bb845f4a5fb4f8e1aa50d7f6ad11f91b",
	"holes/hidden=30":  "58de5dbd3bac427592cd77b39d9df2db2ee7cd0c58f9f650aa04d28a5878cef2",
	"holes/hidden=5":   "f533e8ae65995f336113910f401e3ee3632ddf4b19f6cff6b4b069f9155fae9b",
	"full/hidden=32":   "0c34750d9ab030340bd71c55ff4140192249a1b8e1751889e61d5843b7e813c6",
	"full/hidden=30":   "07e81c2faad536ff3c71849ae3b6f3cf06517342111a8c9f78b0220cf15ef1a2",
	"full/hidden=5":    "00a3a7b68d7e97f59c6bcc31c72070975d77510b71e5cbab40c5c1884f563f66",
}
