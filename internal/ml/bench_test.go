package ml

import (
	"math/rand"
	"testing"

	"corgipile/internal/data"
)

// benchModels pairs every model with a dataset it can train on. MLP and FM
// get random weight initialization (zero factor matrices have zero
// interaction gradients, which would make the FM benchmark trivial).
func benchModels() []struct {
	name  string
	model Model
	ds    *data.Dataset
	init  func(w []float64)
} {
	dense := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 512, Features: 28, Order: data.OrderShuffled, Seed: 11})
	sparse := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 512, Features: 1000, Sparse: true, NNZ: 32,
		Order: data.OrderShuffled, Seed: 12})
	multi := data.SyntheticMulticlass(data.SyntheticConfig{
		Tuples: 512, Features: 28, Classes: 5, Order: data.OrderShuffled, Seed: 13})

	mlp := MLP{Classes: 5, Hidden: 32}
	fm := FactorizationMachine{Factors: 8}
	return []struct {
		name  string
		model Model
		ds    *data.Dataset
		init  func(w []float64)
	}{
		{"lr", LogisticRegression{}, dense, nil},
		{"svm", SVM{}, dense, nil},
		{"svm_sparse", SVM{}, sparse, nil},
		{"linreg", LinearRegression{}, dense, nil},
		{"softmax", Softmax{Classes: 5}, multi, nil},
		{"mlp", mlp, multi, func(w []float64) {
			mlp.InitWeights(w, multi.Features, rand.New(rand.NewSource(1)))
		}},
		{"fm", fm, dense, func(w []float64) {
			fm.InitWeights(w, dense.Features, 0.01, rand.New(rand.NewSource(1)))
		}},
	}
}

// BenchmarkGrad measures one workspace gradient evaluation per model — the
// innermost hot-path operation. Expected: 0 allocs/op for every model.
func BenchmarkGrad(b *testing.B) {
	for _, bm := range benchModels() {
		b.Run(bm.name, func(b *testing.B) {
			w := make([]float64, bm.model.Dim(bm.ds.Features))
			if bm.init != nil {
				bm.init(w)
			}
			var ws Workspace
			var gi []int32
			var gv []float64
			// Warm the scratch buffers so steady state is measured.
			_, gi, gv = Grad(bm.model, &ws, w, bm.ds.At(0), gi[:0], gv[:0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := bm.ds.At(i % bm.ds.Len())
				_, gi, gv = Grad(bm.model, &ws, w, t, gi[:0], gv[:0])
			}
		})
	}
}

// TestGradAllocationFree is the hot path's one hard property: in steady
// state a gradient evaluation allocates nothing, for every model, per tuple
// (Grad) and per mini-batch into the accumulator (gradBatch).
func TestGradAllocationFree(t *testing.T) {
	for _, bm := range benchModels() {
		w := make([]float64, bm.model.Dim(bm.ds.Features))
		if bm.init != nil {
			bm.init(w)
		}
		var ws Workspace
		var gi []int32
		var gv []float64
		// Warm the scratch buffers over every tuple, the widest included.
		for i := 0; i < bm.ds.Len(); i++ {
			_, gi, gv = Grad(bm.model, &ws, w, bm.ds.At(i), gi[:0], gv[:0])
		}
		i := 0
		if allocs := testing.AllocsPerRun(200, func() {
			_, gi, gv = Grad(bm.model, &ws, w, bm.ds.At(i%bm.ds.Len()), gi[:0], gv[:0])
			i++
		}); allocs != 0 {
			t.Errorf("%s: Grad allocates %v times per call, want 0", bm.name, allocs)
		}

		const batch = 64
		var acc gradAccumulator
		acc.Reset(len(w))
		d := &gradDest{acc: &acc}
		for lo := 0; lo+batch <= bm.ds.Len(); lo += batch {
			bm.model.gradBatch(&ws, w, bm.ds.Tuples[lo:lo+batch], d)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			acc.Clear()
			lo := i % (bm.ds.Len() - batch)
			bm.model.gradBatch(&ws, w, bm.ds.Tuples[lo:lo+batch], d)
			i += batch
		}); allocs != 0 {
			t.Errorf("%s: gradBatch allocates %v times per batch, want 0", bm.name, allocs)
		}
	}
}

// TestAccuracyAllocations: the per-epoch eval pass allocates its scratch once
// per call, not once per tuple, for every model; so does an FM's AUC pass.
func TestAccuracyAllocations(t *testing.T) {
	for _, bm := range benchModels() {
		w := make([]float64, bm.model.Dim(bm.ds.Features))
		if bm.init != nil {
			bm.init(w)
		}
		small := &data.Dataset{Task: bm.ds.Task, Features: bm.ds.Features,
			Classes: bm.ds.Classes, Tuples: bm.ds.Tuples[:100]}
		large := &data.Dataset{Task: bm.ds.Task, Features: bm.ds.Features,
			Classes: bm.ds.Classes}
		for len(large.Tuples) < 1000 {
			large.Tuples = append(large.Tuples, bm.ds.Tuples...)
		}
		large.Tuples = large.Tuples[:1000]
		a100 := testing.AllocsPerRun(5, func() { Accuracy(bm.model, w, small) })
		a1000 := testing.AllocsPerRun(5, func() { Accuracy(bm.model, w, large) })
		if a100 > 4 || a1000 != a100 {
			t.Errorf("%s: Accuracy allocates %v times at 100 tuples and %v at 1000, want a small constant",
				bm.name, a100, a1000)
		}
		if _, ok := bm.model.(FactorizationMachine); !ok {
			continue
		}
		a100 = testing.AllocsPerRun(5, func() { ModelAUC(bm.model, w, small) })
		a1000 = testing.AllocsPerRun(5, func() { ModelAUC(bm.model, w, large) })
		if a100 > 10 || a1000 != a100 {
			t.Errorf("%s: ModelAUC allocates %v times at 100 tuples and %v at 1000, want a small constant",
				bm.name, a100, a1000)
		}
	}
}

// mlpWorkloadDS is the table of the benchmark's train_mlp_batch workload: 64
// features stored sparse with every index 0…63 present, as LIBSVM loads a
// dense file, in 10 classes.
func mlpWorkloadDS() *data.Dataset {
	return data.SyntheticMulticlass(data.SyntheticConfig{
		Tuples: 2048, Features: 64, Classes: 10, Sparse: true, NNZ: 64,
		Order: data.OrderShuffled, Seed: 32})
}

// holesWorkloadDS is mlpWorkloadDS with every 7th index dropped: sparse
// tuples with holes, which keep the MLP's scalar hidden layer.
func holesWorkloadDS() *data.Dataset {
	ds := mlpWorkloadDS()
	for i := range ds.Tuples {
		t := &ds.Tuples[i]
		idx, val := t.SparseIdx[:0], t.SparseVal[:0]
		for j, v := range t.SparseVal {
			if t.SparseIdx[j]%7 != 6 {
				idx, val = append(idx, t.SparseIdx[j]), append(val, v)
			}
		}
		t.SparseIdx, t.SparseVal = idx, val
	}
	return ds
}

// BenchmarkEpoch measures a full trainer epoch over an in-memory dataset:
// svm per tuple and at batch 64 (tuple, batch64), lr, softmax and fm the
// same way (lr/tuple, lr/batch64, …), and the MLP at the shape of the
// benchmark's train_mlp_batch workload (hidden 32, batch 64), once as loaded
// and once with every 7th index dropped, so the generic sparse path keeps a
// number. The MLP runs once per lane kernel tier the CPU has (mlp/avx512,
// mlp/avx2, mlp/go), so the AVX2-only and Go reference costs are measured,
// not guessed.
func BenchmarkEpoch(b *testing.B) {
	svmDS := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 4096, Features: 28, Order: data.OrderShuffled, Seed: 31})
	multiDS := data.SyntheticMulticlass(data.SyntheticConfig{
		Tuples: 4096, Features: 28, Classes: 5, Order: data.OrderShuffled, Seed: 33})
	mlpDS := mlpWorkloadDS()
	holesDS := holesWorkloadDS()
	run := func(b *testing.B, m Model, ds *data.Dataset, batchSize int) {
		tr := NewTrainer(m, NewSGD(0.01), batchSize)
		w := make([]float64, m.Dim(ds.Features))
		switch m := m.(type) {
		case MLP:
			m.InitWeights(w, ds.Features, rand.New(rand.NewSource(1)))
		case FactorizationMachine:
			m.InitWeights(w, ds.Features, 0.01, rand.New(rand.NewSource(1)))
		}
		tr.Opt.Reset(len(w))
		// One resettable stream, constructed outside the timed loop so the
		// epochs themselves are allocation-free.
		pos := 0
		next := func() (*data.Tuple, bool) {
			if pos >= ds.Len() {
				return nil, false
			}
			t := ds.At(pos)
			pos++
			return t, true
		}
		tr.RunEpoch(w, next) // warm scratch
		b.ReportAllocs()
		b.SetBytes(int64(ds.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pos = 0
			tr.RunEpoch(w, next)
		}
	}
	b.Run("tuple", func(b *testing.B) { run(b, SVM{}, svmDS, 1) })
	b.Run("batch64", func(b *testing.B) { run(b, SVM{}, svmDS, 64) })
	for _, c := range []struct {
		name string
		m    Model
		ds   *data.Dataset
	}{
		{"lr", LogisticRegression{}, svmDS},
		{"softmax", Softmax{Classes: 5}, multiDS},
		{"fm", FactorizationMachine{Factors: 8}, svmDS},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.Run("tuple", func(b *testing.B) { run(b, c.m, c.ds, 1) })
			b.Run("batch64", func(b *testing.B) { run(b, c.m, c.ds, 64) })
		})
	}
	mlp := MLP{Classes: 10, Hidden: 32}
	b.Run("mlp", func(b *testing.B) { forEachTier(b, func(b *testing.B) { run(b, mlp, mlpDS, 64) }) })
	b.Run("mlp_holes", func(b *testing.B) { forEachTier(b, func(b *testing.B) { run(b, mlp, holesDS, 64) }) })
}

// accuracySink keeps BenchmarkAccuracy's calls observable.
var accuracySink float64

// BenchmarkAccuracy times the per-epoch eval pass (TrainEval, and TRAIN's
// accuracy column) over the train_mlp_batch table: once as loaded (once per
// lane kernel tier), private indices 0…63 that layoutOf scans; once as a
// decoded table image holds it, every tuple carrying data.PrefixIdx
// (mlp_prefix); and once with every 7th index dropped, so the scalar hidden
// layer keeps a number.
func BenchmarkAccuracy(b *testing.B) {
	run := func(b *testing.B, ds *data.Dataset) {
		m := MLP{Classes: 10, Hidden: 32}
		w := make([]float64, m.Dim(ds.Features))
		m.InitWeights(w, ds.Features, rand.New(rand.NewSource(1)))
		b.ReportAllocs()
		b.SetBytes(int64(ds.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			accuracySink = Accuracy(m, w, ds)
		}
	}
	b.Run("mlp", func(b *testing.B) { forEachTier(b, func(b *testing.B) { run(b, mlpWorkloadDS()) }) })
	b.Run("mlp_prefix", func(b *testing.B) {
		ds := mlpWorkloadDS()
		sharePrefixes(ds.Tuples)
		run(b, ds)
	})
	b.Run("mlp_holes", func(b *testing.B) { run(b, holesWorkloadDS()) })
}
