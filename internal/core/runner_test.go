package core

import (
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/shuffle"
)

// trainWith runs SVM for the given strategy over a clustered dataset and
// returns the final train accuracy.
func trainWith(t *testing.T, kind shuffle.Kind, ds *data.Dataset, epochs int) float64 {
	t.Helper()
	src := shuffle.NewMemSource(ds, 50)
	st, err := shuffle.New(kind, src, shuffle.Options{Seed: 7, BufferFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{
		Strategy:  st,
		Model:     ml.SVM{},
		Opt:       ml.NewSGD(0.05),
		Features:  ds.Features,
		Epochs:    epochs,
		BatchSize: 1,
		TrainEval: ds,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Final().TrainAcc
}

// TestConvergenceOrdering reproduces the paper's central claim (Figures 2
// and 12) in miniature: on clustered data,
//
//	No Shuffle ≪ Sliding-Window < CorgiPile ≈ Shuffle Once.
func TestConvergenceOrdering(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 4000, Features: 10, Separation: 1.5, Noise: 1.0,
		Order: data.OrderClustered, Seed: 41})
	const epochs = 8

	noShuffle := trainWith(t, shuffle.KindNoShuffle, ds, epochs)
	window := trainWith(t, shuffle.KindSlidingWindow, ds, epochs)
	corgi := trainWith(t, shuffle.KindCorgiPile, ds, epochs)
	once := trainWith(t, shuffle.KindShuffleOnce, ds, epochs)

	t.Logf("no_shuffle=%.3f sliding_window=%.3f corgipile=%.3f shuffle_once=%.3f",
		noShuffle, window, corgi, once)

	if once < 0.85 {
		t.Fatalf("shuffle-once accuracy %.3f too low; test data too hard", once)
	}
	if corgi < once-0.02 {
		t.Fatalf("corgipile %.3f should match shuffle-once %.3f within 2pp", corgi, once)
	}
	if noShuffle > once-0.1 {
		t.Fatalf("no-shuffle %.3f should badly trail shuffle-once %.3f on clustered data", noShuffle, once)
	}
	if window > corgi-0.05 {
		t.Fatalf("sliding-window %.3f should trail corgipile %.3f", window, corgi)
	}
}

// TestShuffledDataAllStrategiesFine mirrors Figure 2's right half: on
// pre-shuffled data every strategy converges.
func TestShuffledDataAllStrategiesFine(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 3000, Features: 10, Separation: 2, Order: data.OrderShuffled, Seed: 42})
	for _, kind := range []shuffle.Kind{shuffle.KindNoShuffle, shuffle.KindCorgiPile, shuffle.KindSlidingWindow} {
		if acc := trainWith(t, kind, ds, 6); acc < 0.85 {
			t.Errorf("%s on shuffled data: accuracy %.3f < 0.85", kind, acc)
		}
	}
}

func TestRunRecordsSimulatedTime(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 500, Features: 8, Order: data.OrderClustered, Seed: 43})
	clock := iosim.NewClock()
	src := shuffle.NewMemSource(ds, 50).WithClock(clock, 0)
	st, _ := shuffle.New(shuffle.KindCorgiPile, src, shuffle.Options{Seed: 1})
	res, err := Run(RunConfig{
		Strategy: st, Model: ml.LogisticRegression{}, Opt: ml.NewSGD(0.1),
		Features: ds.Features, Epochs: 3, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(res.Points))
	}
	prev := 0.0
	for _, p := range res.Points {
		if p.Seconds <= prev {
			t.Fatalf("epoch %d time %v not increasing past %v", p.Epoch, p.Seconds, prev)
		}
		prev = p.Seconds
		if p.Tuples != 500 {
			t.Fatalf("epoch %d consumed %d tuples, want 500", p.Epoch, p.Tuples)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Fatal("Run without components must error")
	}
}

func TestRunRegressionUsesR2(t *testing.T) {
	ds := data.SyntheticRegression(data.SyntheticConfig{
		Tuples: 2000, Features: 6, Noise: 0.1, Order: data.OrderShuffled, Seed: 44})
	src := shuffle.NewMemSource(ds, 100)
	st, _ := shuffle.New(shuffle.KindNoShuffle, src, shuffle.Options{Seed: 1})
	res, err := Run(RunConfig{
		Strategy: st, Model: ml.LinearRegression{}, Opt: ml.NewSGD(0.01),
		Features: ds.Features, Epochs: 8, TrainEval: ds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final().TrainAcc < 0.9 {
		t.Fatalf("R² = %.3f, want >= 0.9", res.Final().TrainAcc)
	}
}

func TestRunMLPWithInit(t *testing.T) {
	ds := data.SyntheticMulticlass(data.SyntheticConfig{
		Tuples: 1200, Features: 16, Classes: 3, Separation: 4,
		Order: data.OrderShuffled, Seed: 45})
	src := shuffle.NewMemSource(ds, 60)
	st, _ := shuffle.New(shuffle.KindCorgiPile, src, shuffle.Options{Seed: 2})
	m := ml.MLP{Classes: 3, Hidden: 16}
	res, err := Run(RunConfig{
		Strategy: st, Model: m, Opt: ml.NewSGD(0.02),
		Features: ds.Features, Epochs: 10, BatchSize: 16,
		TrainEval: ds, InitWeights: MLPInit(m, ds.Features, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final().TrainAcc < 0.8 {
		t.Fatalf("MLP accuracy %.3f < 0.8", res.Final().TrainAcc)
	}
}

func TestResultFinalEmpty(t *testing.T) {
	var r Result
	if r.Final() != (EpochPoint{}) {
		t.Fatal("empty result Final should be zero")
	}
}
