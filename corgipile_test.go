package corgipile

import (
	"testing"
)

func TestTrainQuickstart(t *testing.T) {
	ds := Synthetic("susy", 0.2, OrderClustered)
	res, err := Train(ds, TrainConfig{Model: "svm", Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Final().TrainAcc < 0.7 {
		t.Fatalf("accuracy %.3f too low", res.Final().TrainAcc)
	}
}

func TestTrainOnDeviceChargesTime(t *testing.T) {
	ds := Synthetic("susy", 0.1, OrderClustered)
	res, clock, err := TrainOnDevice(ds, TrainConfig{
		Model: "lr", Epochs: 3, Device: "hdd", BlockSize: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now() <= 0 {
		t.Fatal("no simulated time charged")
	}
	if res.Final().Seconds <= 0 {
		t.Fatal("epoch points missing simulated time")
	}
}

func TestTrainStrategyComparison(t *testing.T) {
	ds := Synthetic("higgs", 0.2, OrderClustered)
	corgi, err := Train(ds, TrainConfig{Strategy: CorgiPile, Epochs: 6})
	if err != nil {
		t.Fatal(err)
	}
	noshuf, err := Train(ds, TrainConfig{Strategy: NoShuffle, Epochs: 6})
	if err != nil {
		t.Fatal(err)
	}
	if corgi.Final().TrainAcc <= noshuf.Final().TrainAcc {
		t.Fatalf("corgipile %.3f should beat no-shuffle %.3f",
			corgi.Final().TrainAcc, noshuf.Final().TrainAcc)
	}
}

func TestTrainErrors(t *testing.T) {
	ds := Synthetic("susy", 0.05, OrderClustered)
	if _, err := Train(ds, TrainConfig{Model: "quantum"}); err == nil {
		t.Fatal("unknown model should error")
	}
	if _, err := Train(ds, TrainConfig{Optimizer: "lbfgs"}); err == nil {
		t.Fatal("unknown optimizer should error")
	}
	if _, err := Train(ds, TrainConfig{Strategy: "teleport"}); err == nil {
		t.Fatal("unknown strategy should error")
	}
	if _, _, err := TrainOnDevice(ds, TrainConfig{Device: "floppy"}); err == nil {
		t.Fatal("unknown device should error")
	}
}

// A library FM run trains its factors: they start random, as under SQL
// TRAIN, so none ends at exactly zero (from zero they would never move).
func TestTrainFMLearnsFactors(t *testing.T) {
	ds := Synthetic("higgs", 0.05, OrderClustered)
	res, err := Train(ds, TrainConfig{Model: "fm", Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	factors := res.W[ds.Features+1:]
	if len(factors) != 8*ds.Features {
		t.Fatalf("%d factor weights for %d features", len(factors), ds.Features)
	}
	for i, v := range factors {
		if v == 0 {
			t.Fatalf("factor weight %d is exactly 0", i)
		}
	}
}

func TestCorgiPileDatasetStreams(t *testing.T) {
	ds := Synthetic("susy", 0.1, OrderClustered)
	cds, err := NewCorgiPileDataset(ds, 0.1, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	next := cds.Epoch(0)
	for {
		tp, ok := next()
		if !ok {
			break
		}
		if seen[tp.ID] {
			t.Fatalf("tuple %d twice in one epoch", tp.ID)
		}
		seen[tp.ID] = true
	}
	if len(seen) != ds.Len() {
		t.Fatalf("epoch covered %d of %d tuples", len(seen), ds.Len())
	}
}

func TestSessionFacade(t *testing.T) {
	s := NewSession()
	if _, err := s.Exec(`CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.05)`); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(`SELECT * FROM t TRAIN BY svm MODEL m WITH max_epoch_num=2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestModelAndOptimizerConstructors(t *testing.T) {
	if _, err := NewModel("svm", 2); err != nil {
		t.Fatal(err)
	}
	if NewSGD(0.1) == nil || NewAdam(0.1) == nil {
		t.Fatal("optimizer constructors broken")
	}
}
