package dist

import (
	"fmt"
	"math"
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/ml"
)

// epochOrders drains the run's merged stream and returns the tuple ids each
// epoch hands out, in order.
func epochOrders(t *testing.T, ds *data.Dataset, cfg Config) [][]int64 {
	t.Helper()
	s, err := newStream(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	orders := make([][]int64, s.cfg.Epochs)
	for epoch := range orders {
		s.startEpoch()
		for tu, ok := s.next(); ok; tu, ok = s.next() {
			orders[epoch] = append(orders[epoch], tu.ID)
		}
		if s.err != nil {
			t.Fatal(s.err)
		}
	}
	return orders
}

// gridConfig is the golden grid's cell: a GlobalBatch no worker count divides,
// uneven block shares with a short last block, and a buffer that splits blocks.
func gridConfig(workers int, mode string) Config {
	cfg := baseConfig(workers)
	cfg.Epochs = 3
	cfg.GlobalBatch = 97
	cfg.BlockTuples = 30
	cfg.BufferFraction = 0.13
	cfg.NoTupleShuffle = mode != "corgipile"
	cfg.NoBlockShuffle = mode == "no-shuffle"
	return cfg
}

// TestEveryEpochCoversEveryTupleOnce: each epoch of the merged
// stream is a permutation of the dataset — the straddling-block split, the
// uneven partition and the short last block lose and repeat nothing.
func TestEveryEpochCoversEveryTupleOnce(t *testing.T) {
	ds := clusteredDS(2000)
	for _, workers := range []int{1, 2, 5, 8, 80} { // 80 workers over 67 blocks: some own none
		for _, mode := range []string{"corgipile", "block-only", "no-shuffle"} {
			for epoch, order := range epochOrders(t, ds, gridConfig(workers, mode)) {
				seen := make([]bool, ds.Len())
				for _, id := range order {
					if seen[id] {
						t.Fatalf("%d/%s epoch %d: id %d handed out twice", workers, mode, epoch, id)
					}
					seen[id] = true
				}
				if len(order) != ds.Len() {
					t.Fatalf("%d/%s epoch %d: %d tuples, want %d", workers, mode, epoch, len(order), ds.Len())
				}
			}
		}
	}
}

// TestMultiWorkerIsMiniBatchOverMergedOrder is Figure 5 as a bit-exact
// statement: multi-worker training ends at the very weights, and reports the
// very losses, of a plain mini-batch trainer fed the merged order.
func TestMultiWorkerIsMiniBatchOverMergedOrder(t *testing.T) {
	ds := clusteredDS(2000)
	for _, workers := range []int{2, 5, 8} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			got, err := Train(ds, gridConfig(workers, "corgipile"))
			if err != nil {
				t.Fatal(err)
			}
			cfg := gridConfig(workers, "corgipile")
			tr := ml.NewTrainer(cfg.Model, cfg.Opt, cfg.GlobalBatch)
			w := make([]float64, cfg.Model.Dim(cfg.Features))
			cfg.Opt.Reset(len(w))
			for epoch, order := range epochOrders(t, ds, cfg) {
				i := 0
				stats := tr.RunEpoch(w, func() (*data.Tuple, bool) {
					if i == len(order) {
						return nil, false
					}
					i++
					return ds.At(int(order[i-1])), true
				})
				if p := got.Points[epoch]; p.AvgLoss != stats.AvgLoss || p.Tuples != stats.Tuples {
					t.Fatalf("epoch %d: dist %v over %d tuples, trainer %v over %d",
						epoch, p.AvgLoss, p.Tuples, stats.AvgLoss, stats.Tuples)
				}
			}
			for i := range w {
				if math.Float64bits(w[i]) != math.Float64bits(got.W[i]) {
					t.Fatalf("weight %d: dist %v, trainer %v", i, got.W[i], w[i])
				}
			}
		})
	}
}

// TestEvalFollowsTask: a regression Eval set is scored with R², as core.Loop
// scores it, not with classification accuracy.
func TestEvalFollowsTask(t *testing.T) {
	ds := data.SyntheticRegression(data.SyntheticConfig{Tuples: 1000, Features: 6, Noise: 0.1, Seed: 85})
	cfg := baseConfig(2)
	cfg.Model, cfg.Opt, cfg.Features, cfg.Eval = ml.LinearRegression{}, ml.NewSGD(0.01), ds.Features, ds
	res, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Final().TrainAcc, ml.R2(cfg.Model, res.W, ds); got != want || want <= 0.5 {
		t.Fatalf("Eval on a regression set reported %v, want its R² %v (> 0.5)", got, want)
	}
}
