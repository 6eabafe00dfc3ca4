package executor

import (
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
	"corgipile/internal/shuffle"
	"corgipile/internal/storage"
)

// TestSGDPlanPopulatesBreakdown checks that the operator pipeline reports
// into an attached registry: each epoch of a CorgiPile plan yields one
// breakdown row carrying I/O, refill, and tuple counts.
func TestSGDPlanPopulatesBreakdown(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 1500, Features: 8, Order: data.OrderClustered, Seed: 11})
	clock := iosim.NewClock()
	dev := iosim.NewDevice(iosim.HDD, clock)
	tab, err := storage.Build(dev, ds, storage.Options{BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New().WithClock(clock)
	dev.WithObs(reg)
	op, err := BuildSGDPlan(shuffle.TableSource(tab), PlanConfig{
		Shuffle: shuffle.KindCorgiPile,
		Seed:    11,
		SGD: SGDConfig{
			Model:  ml.SVM{},
			Opt:    ml.NewSGD(0.05),
			Epochs: 2, Features: ds.Features,
			Clock: clock,
			Obs:   reg,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := op.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(op.Result().Breakdown) != 2 {
		t.Fatalf("got %d rows, %d breakdown entries, want 2 each", len(rows), len(op.Result().Breakdown))
	}
	for i, m := range op.Result().Breakdown {
		if m.Epoch != i+1 || m.Tuples != 1500 {
			t.Fatalf("breakdown row %d = %+v", i, m)
		}
		if m.BytesRead == 0 || m.Refills == 0 || m.IOSeconds <= 0 {
			t.Fatalf("epoch %d missing I/O accounting: %+v", m.Epoch, m)
		}
		if m.Seconds <= 0 {
			t.Fatalf("epoch %d has non-positive duration", m.Epoch)
		}
	}
}
