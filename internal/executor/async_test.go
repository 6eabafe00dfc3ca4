package executor

import (
	"errors"
	"math/rand"
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/shuffle"
)

func asyncShuffle(t *testing.T, src shuffle.Source, capacity int, seed int64) *TupleShuffleOp {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	op := NewTupleShuffle(NewBlockShuffle(src, rng), capacity, rng)
	op.Async = true
	if err := op.Init(); err != nil {
		t.Fatal(err)
	}
	return op
}

func TestAsyncTupleShuffleCoversExactlyOnce(t *testing.T) {
	src := memSource(500, 20, data.OrderClustered)
	op := asyncShuffle(t, src, 100, 1)
	defer op.Close()
	ids := drainOp(t, op)
	assertPerm(t, ids, 500)
}

func TestAsyncTupleShuffleReScan(t *testing.T) {
	src := memSource(300, 20, data.OrderClustered)
	op := asyncShuffle(t, src, 60, 2)
	defer op.Close()
	first := drainOp(t, op)
	if err := op.ReScan(); err != nil {
		t.Fatal(err)
	}
	second := drainOp(t, op)
	assertPerm(t, first, 300)
	assertPerm(t, second, 300)
}

func TestAsyncRejectsClock(t *testing.T) {
	src := memSource(100, 10, data.OrderClustered)
	rng := rand.New(rand.NewSource(3))
	op := NewTupleShuffle(NewBlockShuffle(src, rng), 20, rng)
	op.Async = true
	op.Clock = iosim.NewClock()
	if err := op.Init(); err == nil {
		t.Fatal("Async+Clock must be rejected")
	}
}

func TestAsyncCloseMidStream(t *testing.T) {
	src := memSource(1000, 20, data.OrderClustered)
	op := asyncShuffle(t, src, 50, 4)
	// Consume a few tuples, then close while the write thread is active.
	for i := 0; i < 10; i++ {
		if _, ok, err := op.Next(); err != nil || !ok {
			t.Fatal("early exhaustion")
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
}

type erroringOp struct {
	n   int
	err error
}

func (e *erroringOp) Init() error { return nil }
func (e *erroringOp) Next() (*data.Tuple, bool, error) {
	if e.n <= 0 {
		return nil, false, e.err
	}
	e.n--
	return &data.Tuple{ID: int64(e.n)}, true, nil
}
func (e *erroringOp) ReScan() error { return nil }
func (e *erroringOp) Close() error  { return nil }

func TestAsyncPropagatesChildError(t *testing.T) {
	sentinel := errors.New("child failed")
	op := NewTupleShuffle(&erroringOp{n: 30, err: sentinel}, 10, rand.New(rand.NewSource(5)))
	op.Async = true
	if err := op.Init(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var got error
	for {
		_, ok, err := op.Next()
		if err != nil {
			got = err
			break
		}
		if !ok {
			break
		}
	}
	if !errors.Is(got, sentinel) {
		t.Fatalf("error = %v, want sentinel", got)
	}
}

func TestAsyncTrainingMatchesAccuracy(t *testing.T) {
	// The async plan must train to the same quality class as the sync one.
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 2000, Features: 8, Separation: 1.5, Noise: 1.0,
		Order: data.OrderClustered, Seed: 65})
	run := func(async bool) float64 {
		src := shuffle.NewMemSource(ds, 20)
		rng := rand.New(rand.NewSource(6))
		ts := NewTupleShuffle(NewBlockShuffle(src, rng), 200, rng)
		ts.Async = async
		sgd, err := NewSGD(ts, SGDConfig{
			Model: ml.SVM{}, Opt: ml.NewSGD(0.05), Features: 8, Epochs: 6, TrainEval: ds,
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sgd.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rows[len(rows)-1].TrainAcc
	}
	syncAcc := run(false)
	asyncAcc := run(true)
	if asyncAcc < syncAcc-0.03 {
		t.Fatalf("async accuracy %.3f trails sync %.3f", asyncAcc, syncAcc)
	}
}
