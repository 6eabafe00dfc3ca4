package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/dist"
	"corgipile/internal/executor"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/shuffle"
	"corgipile/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Deep model on imagenet-like data, 8 workers: end-to-end convergence",
		Paper: "Figure 7",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Deep models on clustered cifar-like data, batch 128/256",
		Paper: "Figure 8",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Text models on clustered yelp-like data",
		Paper: "Figure 9",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Adam instead of SGD on clustered cifar-like data",
		Paper: "Figure 10",
		Run:   runFig10,
	})
}

// runFig7 reproduces the ImageNet experiment: 8 data-parallel workers on a
// block-based parallel file system. Shuffle Once pays a long preprocessing
// sort; CorgiPile starts training immediately and converges to the same
// accuracy ~1.5x sooner end-to-end.
func runFig7(w io.Writer, scale float64) error {
	n := int(20000 * scale)
	if n < 1000 {
		n = 1000
	}
	// A 100-class, heavily overlapping dataset: the clustered order is
	// fatal for unshuffled scanning, as for the paper's 1000-class
	// ImageNet.
	ds := data.SyntheticMulticlass(data.SyntheticConfig{
		Name: "imagenet-like", Tuples: n, Features: 64, Classes: 100,
		Separation: 2.0, Noise: 1.0, Order: data.OrderClustered, Seed: 107})
	model := ml.MLP{Classes: ds.Classes, Hidden: 48}

	// Parallel-file-system block fetch cost, calibrated against the
	// dataset's byte size at 5 MB-class blocks.
	const blockTuples = 100
	blocks := (ds.Len() + blockTuples - 1) / blockTuples
	bytesPerBlock := float64(ds.ByteSize()) / float64(blocks)
	readBW := 500e6 // per-worker Lustre-class stream
	blockCost := time.Duration(bytesPerBlock / readBW * float64(time.Second))

	// The MLP gradient stands in for a ResNet50 forward+backward, which
	// costs roughly 500x more per image; the factor restores the paper's
	// compute/shuffle balance.
	const resnetComputeScale = 500

	type mode struct {
		name           string
		noBlockShuffle bool
		noTupleShuffle bool
		prep           time.Duration
	}
	// Shuffle Once's prep: the paper measured ~8.5 hours to shuffle the
	// 150 GB dataset on Lustre — roughly half of the total training time.
	// A 1 MB/s effective sort rate reproduces that balance against this
	// dataset's compute budget.
	prep := time.Duration(float64(ds.ByteSize()) / 1e6 * float64(time.Second))
	modes := []mode{
		{name: "No Shuffle", noBlockShuffle: true, noTupleShuffle: true},
		{name: "Shuffle Once", noBlockShuffle: true, noTupleShuffle: true, prep: prep},
		{name: "CorgiPile"},
	}

	tab := stats.NewTable("8-worker training (top-1 accuracy)",
		"mode", "prep", "e2 acc", "e5 acc", "final acc", "total time", "time to 95% of best")
	const epochs = 12
	best := 0.0
	type res struct {
		points []float64
		times  []float64
		prep   float64
	}
	results := make([]res, len(modes))
	for i, m := range modes {
		clock := iosim.NewClock()
		clock.Advance(m.prep)
		train := ds
		if m.name == "Shuffle Once" {
			train = ds.Clone()
			train.Shuffle(rand.New(rand.NewSource(7)))
		}
		r, err := dist.Train(train, dist.Config{
			Workers: 8, Epochs: epochs, GlobalBatch: 512, BufferFraction: 0.1,
			BlockTuples: blockTuples, Seed: 7,
			NoBlockShuffle: m.noBlockShuffle, NoTupleShuffle: m.noTupleShuffle,
			Model: model, Opt: ml.NewSGD(0.2), Features: ds.Features,
			ComputeScale: resnetComputeScale,
			InitWeights: func(w []float64) {
				model.InitWeights(w, ds.Features, rand.New(rand.NewSource(7)))
			},
			Clock: clock, BlockReadCost: blockCost,
			SyncCost: 100 * time.Microsecond,
			Eval:     ds,
		})
		if err != nil {
			return err
		}
		rr := res{prep: m.prep.Seconds()}
		for _, p := range r.Points {
			rr.points = append(rr.points, p.TrainAcc)
			rr.times = append(rr.times, m.prep.Seconds()+p.Seconds)
		}
		results[i] = rr
		if a := rr.points[len(rr.points)-1]; a > best {
			best = a
		}
	}
	for i, m := range modes {
		rr := results[i]
		target := best * 0.95
		tta := rr.times[len(rr.times)-1]
		mark := " (never)"
		for j, a := range rr.points {
			if a >= target {
				tta = rr.times[j]
				mark = ""
				break
			}
		}
		tab.AddRow(m.name, fmtSecs(rr.prep), rr.points[1], rr.points[4],
			rr.points[len(rr.points)-1], fmtSecs(rr.times[len(rr.times)-1]), fmtSecs(tta)+mark)
	}
	return tab.Write(w)
}

// hardCifar is the Figure 8/10 dataset: a cifar-like 10-class problem with
// substantial class overlap, so that the recency bias of unshuffled
// training costs real accuracy (the role batch-norm interference plays for
// the paper's VGG/ResNet).
func hardCifar(scale float64) *data.Dataset {
	n := int(5000 * scale)
	if n < 500 {
		n = 500
	}
	return data.SyntheticMulticlass(data.SyntheticConfig{
		Name: "cifar10-like", Tuples: n, Features: 64, Classes: 10,
		Separation: 1.5, Noise: 1.0, Order: data.OrderClustered, Seed: 106})
}

// hardYelp is the Figure 9 dataset: sparse 5-class text-like data.
func hardYelp(scale float64) *data.Dataset {
	n := int(8000 * scale)
	if n < 500 {
		n = 500
	}
	return data.SyntheticMulticlass(data.SyntheticConfig{
		Name: "yelp-like", Tuples: n, Features: 5000, Classes: 5,
		Sparse: true, NNZ: 60, Separation: 4, Noise: 1.0,
		Order: data.OrderClustered, Seed: 108})
}

// dlSweep runs the Figure 8/9/10 strategy sweep over a dataset/model pair.
func dlSweep(w io.Writer, title string, ds *data.Dataset, model, optimizer string, lr float64, batches []int) error {
	kinds := []shuffle.Kind{
		shuffle.KindShuffleOnce, shuffle.KindNoShuffle,
		shuffle.KindSlidingWindow, shuffle.KindMRS, shuffle.KindCorgiPile,
	}
	for _, batch := range batches {
		tab := stats.NewTable(fmt.Sprintf("%s (batch %d)", title, batch),
			"strategy", "e2 acc", "e10 acc", "final acc")
		for _, kind := range kinds {
			o, err := runOnDataset(ds, spec{
				workload: ds.Name, inMemory: true,
				TrainConfig: executor.TrainConfig{Model: model, Optimizer: optimizer, LearningRate: lr,
					BatchSize: batch, Epochs: 20, Strategy: kind},
			}, nil)
			if err != nil {
				return err
			}
			p := o.res.Points
			tab.AddRow(strategyLabel(kind), p[1].TrainAcc, p[9].TrainAcc, o.finalAcc())
		}
		if err := tab.Write(w); err != nil {
			return err
		}
	}
	return nil
}

func runFig8(w io.Writer, scale float64) error {
	return dlSweep(w, "MLP on clustered cifar10-like", hardCifar(scale), "mlp", "sgd", 0.3, []int{128, 256})
}

func runFig9(w io.Writer, scale float64) error {
	return dlSweep(w, "Softmax text model on clustered yelp-like", hardYelp(scale), "softmax", "sgd", 0.3, []int{128, 256})
}

func runFig10(w io.Writer, scale float64) error {
	return dlSweep(w, "MLP with Adam on clustered cifar10-like", hardCifar(scale), "mlp", "adam", 0.01, []int{128, 256})
}
