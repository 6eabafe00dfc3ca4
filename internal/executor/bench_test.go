package executor

import (
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/shuffle"
	"corgipile/internal/storage"
)

// BenchmarkPlanEpoch is Figure 13 on the engine (ROADMAP item 31): the wall
// time one epoch of a TRAIN plan costs per tuple under each access path, on
// the shape of the benchmark's train_narrow table. Each op is one TRAIN's
// plan run to the end: BuildSGDPlan with TrainConfig's defaults (10
// epochs), svm at batch 1, over a 30k × 18 table (every feature stored
// sparse, as LIBSVM loads a dense file) in 64 KB blocks on an ssd device,
// with the table's image as the per-epoch eval set, as TRAIN runs it. The
// image is decoded before the timer starts. Every strategy runs over a
// random-order and a clustered table, and reports ns/tuple-epoch.
func BenchmarkPlanEpoch(b *testing.B) {
	for _, order := range []struct {
		name  string
		order data.Order
	}{{"random", data.OrderShuffled}, {"clustered", data.OrderClustered}} {
		ds := data.SyntheticBinary(data.SyntheticConfig{
			Tuples: 30000, Features: 18, Sparse: true, NNZ: 18,
			Separation: 2, Noise: 1, Order: order.order, Seed: 1})
		for _, kind := range []shuffle.Kind{shuffle.KindNoShuffle, shuffle.KindBlockOnly,
			shuffle.KindCorgiPile, shuffle.KindEpochShuffle} {
			b.Run(string(kind)+"/"+order.name, func(b *testing.B) {
				clock := iosim.NewClock()
				tab, err := storage.Build(iosim.NewDevice(iosim.SSD, clock), ds, storage.Options{BlockSize: 64 << 10})
				if err != nil {
					b.Fatal(err)
				}
				eval, err := tab.DecodeAll()
				if err != nil {
					b.Fatal(err)
				}
				epochs := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pc, err := TrainConfig{Model: "svm", Strategy: kind}.Plan(tab.Features(), tab.Classes())
					if err != nil {
						b.Fatal(err)
					}
					pc.SGD.Clock = clock
					pc.SGD.TrainEval = &data.Dataset{Task: tab.Task(), Features: tab.Features(),
						Classes: tab.Classes(), Tuples: eval}
					op, err := BuildSGDPlan(shuffle.TableSource(tab), pc)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := op.RunResult(); err != nil {
						b.Fatal(err)
					}
					epochs += pc.SGD.Epochs
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(epochs*ds.Len()), "ns/tuple-epoch")
			})
		}
	}
}
