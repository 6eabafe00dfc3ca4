package dist

import (
	"testing"

	"corgipile/internal/ml"
)

// TestWorkerShareSumsToGlobalBatch is the regression test for the silent
// batch shrinkage bug: worker shares of GlobalBatch/Workers dropped the
// remainder, so an 8-worker batch of 100 consumed only 96 tuples.
func TestWorkerShareSumsToGlobalBatch(t *testing.T) {
	for _, tc := range []struct{ gb, workers int }{
		{100, 8}, {64, 4}, {64, 5}, {7, 3}, {1, 1}, {13, 13}, {13, 4},
	} {
		sum := 0
		for i := 0; i < tc.workers; i++ {
			n := workerShare(tc.gb, tc.workers, i)
			if min := tc.gb / tc.workers; n != min && n != min+1 {
				t.Fatalf("workerShare(%d,%d,%d) = %d, want %d or %d",
					tc.gb, tc.workers, i, n, min, min+1)
			}
			sum += n
		}
		if sum != tc.gb {
			t.Fatalf("shares of batch %d over %d workers sum to %d",
				tc.gb, tc.workers, sum)
		}
	}
}

// TestFullBatchConsumesExactlyGlobalBatch reads the rounds off the merged
// order: as long as no worker has exhausted its partition, every round must
// hand out exactly GlobalBatch tuples — not Workers·⌊GlobalBatch/Workers⌋ —
// as each worker's share in worker order, and the run takes exactly
// ⌈tuples/GlobalBatch⌉ optimizer steps per epoch.
func TestFullBatchConsumesExactlyGlobalBatch(t *testing.T) {
	ds := clusteredDS(1600)
	cfg := baseConfig(8)
	cfg.GlobalBatch = 100 // remainder 4 over 8 workers
	cfg.BlockTuples = 25  // 64 blocks → 8 per worker → 200 tuples each
	// Unshuffled, worker i streams ids [200i, 200i+200): an id names its worker.
	cfg.NoBlockShuffle, cfg.NoTupleShuffle = true, true
	order, err := EffectiveOrder(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != ds.Len() {
		t.Fatalf("total consumed %d, want %d", len(order), ds.Len())
	}
	// 200 tuples per worker at shares of 13 (first 4 workers) means the
	// stream stays full-round for 15 rounds.
	pos := 0
	for round := 0; round < 15; round++ {
		for i := 0; i < cfg.Workers; i++ {
			for k := workerShare(cfg.GlobalBatch, cfg.Workers, i); k > 0; k-- {
				if got := int(order[pos] / 200); got != i {
					t.Fatalf("round %d, position %d: tuple of worker %d, want worker %d", round, pos, got, i)
				}
				pos++
			}
		}
		if pos != (round+1)*cfg.GlobalBatch {
			t.Fatalf("round %d handed out %d tuples so far, want %d", round, pos, (round+1)*cfg.GlobalBatch)
		}
	}

	opt := &countingOpt{Optimizer: cfg.Opt}
	cfg.Epochs, cfg.Opt = 2, opt
	res, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tuples := res.Points[0].Tuples + res.Points[1].Tuples; tuples != 3200 || opt.steps != 32 {
		t.Fatalf("2 epochs consumed %d tuples in %d steps, want 3200 in 32", tuples, opt.steps)
	}
}

// countingOpt counts the optimizer steps a run takes.
type countingOpt struct {
	ml.Optimizer
	steps int
}

func (o *countingOpt) Step(w []float64, gi []int32, gv []float64) {
	o.steps++
	o.Optimizer.Step(w, gi, gv)
}

// TestRemainderBatchCoverage: a non-divisible GlobalBatch must still consume
// the whole dataset each epoch through the public Train path.
func TestRemainderBatchCoverage(t *testing.T) {
	ds := clusteredDS(1200)
	cfg := baseConfig(8)
	cfg.GlobalBatch = 100
	cfg.Epochs = 2
	res, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Tuples != 1200 {
			t.Fatalf("epoch %d consumed %d tuples, want 1200", p.Epoch, p.Tuples)
		}
	}
}

// TestDeterministicLossTraceNonDivisible extends the determinism guarantee to
// the remainder path: with 5 workers and a batch of 64 (shares 13,13,13,13,12)
// repeated runs must produce bit-for-bit identical loss traces and weights.
func TestDeterministicLossTraceNonDivisible(t *testing.T) {
	ds := clusteredDS(1000)
	run := func() ([]float64, []float64) {
		cfg := baseConfig(5)
		cfg.GlobalBatch = 64
		cfg.Opt = ml.NewSGD(0.05)
		res, err := Train(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		losses := make([]float64, len(res.Points))
		for i, p := range res.Points {
			losses[i] = p.AvgLoss
		}
		return losses, res.W
	}
	l1, w1 := run()
	l2, w2 := run()
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("loss trace diverges at epoch %d: %v vs %v", i+1, l1[i], l2[i])
		}
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("weights diverge at %d: %v vs %v", i, w1[i], w2[i])
		}
	}
}
