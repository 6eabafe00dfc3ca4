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

// TestFullBatchConsumesExactlyGlobalBatch drives the per-epoch pull rounds
// directly: as long as no worker has exhausted its partition, every round
// must gather exactly GlobalBatch tuples — not Workers·⌊GlobalBatch/Workers⌋.
func TestFullBatchConsumesExactlyGlobalBatch(t *testing.T) {
	ds := clusteredDS(1600)
	cfg := baseConfig(8)
	cfg.GlobalBatch = 100 // remainder 4 over 8 workers
	cfg.BlockTuples = 25  // 64 blocks → 8 per worker → 200 tuples each
	workers := makeWorkers(ds, cfg, 0, workerRngs(cfg))

	total, rounds := 0, 0
	for {
		count := 0
		short := false
		for i, wk := range workers {
			want := workerShare(cfg.GlobalBatch, cfg.Workers, i)
			wk.pull(want)
			count += len(wk.batch)
			if len(wk.batch) < want {
				short = true
			}
		}
		if count == 0 {
			break
		}
		total += count
		rounds++
		if !short && count != cfg.GlobalBatch {
			t.Fatalf("round %d consumed %d tuples, want exactly %d",
				rounds, count, cfg.GlobalBatch)
		}
	}
	if total != ds.Len() {
		t.Fatalf("total consumed %d, want %d", total, ds.Len())
	}
	// 200 tuples per worker at shares of 13 (first 4 workers) means the
	// stream stays full-batch for at least 15 rounds.
	if rounds < 15 {
		t.Fatalf("only %d pull rounds, expected at least 15", rounds)
	}
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
// Run under -race this also exercises the concurrent per-batch gradient
// goroutines.
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
