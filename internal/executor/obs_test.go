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

// TestRunHistogramsPinned pins the duration histograms a real run leaves,
// and the refill quantiles each breakdown row derives from them: a
// double-buffered CorgiPile plan over 3 epochs on the simulated clock,
// with diagnostics on and a device cache too small for the table, so the
// rows differ.
func TestRunHistogramsPinned(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 3000, Features: 8, Order: data.OrderClustered, Seed: 11})
	clock := iosim.NewClock()
	dev := iosim.NewDevice(iosim.HDD, clock).WithCache(200 << 10)
	tab, err := storage.Build(dev, ds, storage.Options{BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New().WithClock(clock)
	dev.WithObs(reg)
	op, err := BuildSGDPlan(shuffle.TableSource(tab), PlanConfig{
		Shuffle: shuffle.KindCorgiPile, DoubleBuffer: true, Seed: 11,
		SGD: SGDConfig{Model: ml.SVM{}, Opt: ml.NewSGD(0.05), Epochs: 3,
			Features: ds.Features, Clock: clock, Obs: reg, Diag: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := op.Run(); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	for _, tt := range []struct {
		name                     string
		count, sum, minNs, maxNs int64
	}{
		{obs.SpanEpoch, 3, 408432592, 122481361, 153062158},
		{obs.SpanRefill, 30, 407925049, 20457, 20369084},
	} {
		h := s.Hists[tt.name]
		if h.Count != tt.count || int64(h.Sum) != tt.sum || int64(h.Min) != tt.minNs || int64(h.Max) != tt.maxNs {
			t.Errorf("%s: count=%d sum=%d min=%d max=%d, want %d %d %d %d", tt.name,
				h.Count, int64(h.Sum), int64(h.Min), int64(h.Max), tt.count, tt.sum, tt.minNs, tt.maxNs)
		}
	}
	if got, want := s.Hists[obs.SpanRefill].Count, s.Counters[obs.ShuffleRefills]; got != want {
		t.Errorf("%s count %d, %s counter %d", obs.SpanRefill, got, obs.ShuffleRefills, want)
	}
	want := [][3]float64{
		{0.015938355, 0.020369084, 0.020369084},
		{0.014260633, 0.020369084, 0.020369084},
		{0.013281962, 0.020369084, 0.020369084},
	}
	rows := op.Result().Breakdown
	if len(rows) != len(want) {
		t.Fatalf("%d breakdown rows, want %d", len(rows), len(want))
	}
	for i, m := range rows {
		if got := [3]float64{m.RefillP50S, m.RefillP95S, m.RefillP99S}; got != want[i] {
			t.Errorf("epoch %d refill p50/p95/p99 = %v, want %v", m.Epoch, got, want[i])
		}
	}
}
