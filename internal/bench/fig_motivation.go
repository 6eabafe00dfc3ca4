package bench

import (
	"fmt"
	"io"

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
		ID:    "fig1",
		Title: "SVM on clustered higgs: convergence and end-to-end time per system",
		Paper: "Figure 1",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Convergence of all shuffling strategies on clustered and shuffled data",
		Paper: "Figure 2",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Tuple-id and label distributions of baseline shuffles",
		Paper: "Figure 3",
		Run:   runFig3,
	})
	register(Experiment{
		ID:    "fig4",
		Title: "Tuple-id and label distribution of CorgiPile",
		Paper: "Figure 4",
		Run:   runFig4,
	})
	register(Experiment{
		ID:    "table1",
		Title: "Summary of shuffling strategies (measured)",
		Paper: "Table 1",
		Run:   runTable1,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Multi-process vs single-process CorgiPile data order",
		Paper: "Figure 5",
		Run:   runFig5,
	})
}

// runFig1 reproduces the motivating figure: today's systems on clustered
// data either converge to low accuracy (No Shuffle, sliding window) or pay
// a huge shuffle cost (Shuffle Once). MADlib carries a per-tuple compute
// multiplier for its extra statistics (Section 7.3.1).
func runFig1(w io.Writer, scale float64) error {
	type system struct {
		name         string
		kind         shuffle.Kind
		computeScale float64
	}
	systems := []system{
		{"MADlib (No Shuffle)", shuffle.KindNoShuffle, 3},
		{"Bismarck (No Shuffle)", shuffle.KindNoShuffle, 1},
		{"TensorFlow (Sliding-Window)", shuffle.KindSlidingWindow, 1},
		{"Bismarck (Shuffle Once)", shuffle.KindShuffleOnce, 1},
		{"CorgiPile", shuffle.KindCorgiPile, 1},
	}
	conv := stats.NewTable("(a) Convergence: train accuracy by epoch", "system", "e1", "e3", "e5", "e10", "final")
	perf := stats.NewTable("(b) End-to-end time on HDD", "system", "shuffle prep", "time to 98% of best acc", "total", "final acc")

	best := 0.0
	outs := make([]*out, len(systems))
	for i, sys := range systems {
		o, err := run(spec{
			workload: "higgs", order: data.OrderClustered, scale: scale, device: iosim.HDD,
			computeScale: sys.computeScale,
			TrainConfig: executor.TrainConfig{Model: "svm", LearningRate: glmLR["higgs"], Decay: glmDecay,
				Epochs: 10, Strategy: sys.kind},
		})
		if err != nil {
			return err
		}
		outs[i] = o
		if a := o.finalAcc(); a > best {
			best = a
		}
	}
	for i, sys := range systems {
		o := outs[i]
		p := o.res.Points
		conv.AddRow(sys.name, p[0].TrainAcc, p[2].TrainAcc, p[4].TrainAcc, p[9].TrainAcc, o.finalAcc())
		tta, reached := o.timeToAccuracy(best * 0.98)
		mark := ""
		if !reached {
			mark = " (never)"
		}
		perf.AddRow(sys.name, fmtSecs(o.prep), fmtSecs(tta)+mark, fmtSecs(o.total), o.finalAcc())
	}
	if err := conv.Write(w); err != nil {
		return err
	}
	return perf.Write(w)
}

// runFig2 sweeps the five baseline strategies plus CorgiPile over both
// clustered and shuffled versions of a GLM workload and a multi-class
// (deep-learning stand-in) workload.
func runFig2(w io.Writer, scale float64) error {
	kinds := []shuffle.Kind{
		shuffle.KindEpochShuffle, shuffle.KindShuffleOnce, shuffle.KindNoShuffle,
		shuffle.KindSlidingWindow, shuffle.KindMRS, shuffle.KindCorgiPile,
	}
	for _, wl := range []struct {
		workload, model string
		lr              float64
		batch           int
	}{
		{"higgs", "svm", 0.05, 1},
		{"cifar10", "mlp", 0.02, 16},
	} {
		for _, order := range []data.Order{data.OrderClustered, data.OrderShuffled} {
			tab := stats.NewTable(
				fmt.Sprintf("%s (%s data, %s)", wl.workload, order, wl.model),
				"strategy", "e1", "e3", "e6", "final acc")
			for _, kind := range kinds {
				o, err := run(spec{
					workload: wl.workload, order: order, scale: scale, inMemory: true,
					TrainConfig: executor.TrainConfig{Model: wl.model, LearningRate: wl.lr,
						BatchSize: wl.batch, Epochs: 8, Strategy: kind},
				})
				if err != nil {
					return err
				}
				p := o.res.Points
				tab.AddRow(strategyLabel(kind), p[0].TrainAcc, p[2].TrainAcc, p[5].TrainAcc, o.finalAcc())
			}
			if err := tab.Write(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// distReport renders the Figure 3/4 distribution summary for one strategy.
func distReport(w io.Writer, name string, ids []int64, labels []float64) error {
	tab := stats.NewTable(name,
		"metric", "value")
	tab.AddRow("order correlation (1=unshuffled, 0=ideal)", stats.OrderCorrelation(ids))
	tab.AddRow("mean displacement (0=unshuffled, ~0.33=ideal)", stats.MeanDisplacement(ids))
	tab.AddRow("label mix score (0=clustered, 1=ideal)", stats.LabelMixScore(labels, 20))
	if err := tab.Write(w); err != nil {
		return err
	}
	// Windowed negative counts, the paper's label-distribution bars.
	wins := stats.LabelWindows(labels, 20)
	negs := make([]float64, 0, len(wins))
	for _, win := range wins {
		negs = append(negs, float64(win.Neg))
	}
	fmt.Fprintf(w, "negatives per 20-tuple window: %s\n\n", stats.Sparkline(negs))
	return nil
}

// runFig3 reproduces the 1000-tuple distribution study for the baselines.
func runFig3(w io.Writer, scale float64) error {
	const tuples, perBlock = 1000, 20
	for _, kind := range []shuffle.Kind{shuffle.KindNoShuffle, shuffle.KindSlidingWindow, shuffle.KindMRS} {
		ids, labels, err := emitOrder(kind, tuples, perBlock, 0.10, 1)
		if err != nil {
			return err
		}
		if err := distReport(w, strategyLabel(kind), ids, labels); err != nil {
			return err
		}
	}
	ids, labels := fullShuffleOrder(tuples, 1)
	return distReport(w, "Full Shuffle (ideal)", ids, labels)
}

// runFig4 is the same study for CorgiPile with a 10-block buffer.
func runFig4(w io.Writer, scale float64) error {
	ids, labels, err := emitOrder(shuffle.KindCorgiPile, 1000, 20, 0.20, 1)
	if err != nil {
		return err
	}
	return distReport(w, "CorgiPile (buffer = 10 blocks)", ids, labels)
}

// runTable1 measures the qualitative summary of Table 1: convergence on
// clustered data, epoch-1 I/O throughput class, buffer need, and disk
// overhead.
func runTable1(w io.Writer, scale float64) error {
	tab := stats.NewTable("Strategy summary (measured on clustered higgs, HDD)",
		"strategy", "final acc", "per-epoch time", "prep time", "extra disk")
	for _, kind := range []shuffle.Kind{
		shuffle.KindNoShuffle, shuffle.KindEpochShuffle, shuffle.KindShuffleOnce,
		shuffle.KindMRS, shuffle.KindSlidingWindow, shuffle.KindCorgiPile,
	} {
		o, err := run(spec{
			workload: "higgs", order: data.OrderClustered, scale: scale, device: iosim.HDD,
			TrainConfig: executor.TrainConfig{Model: "svm", LearningRate: glmLR["higgs"], Decay: glmDecay,
				Epochs: 8, Strategy: kind},
		})
		if err != nil {
			return err
		}
		disk := "none"
		if kind == shuffle.KindShuffleOnce || kind == shuffle.KindEpochShuffle {
			disk = "2x data size"
		}
		tab.AddRow(strategyLabel(kind), o.finalAcc(), fmtSecs(o.perEpoch), fmtSecs(o.prep), disk)
	}
	return tab.Write(w)
}

// runFig5 compares the merged data order of multi-process CorgiPile with
// the single-process order via the Figure 3/4 metrics.
func runFig5(w io.Writer, scale float64) error {
	n := int(2000 * scale)
	if n < 400 {
		n = 400
	}
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: n, Features: 2, Order: data.OrderClustered, Seed: 91})

	multi, err := dist.EffectiveOrder(ds, dist.Config{
		Workers: 2, GlobalBatch: 32, BlockTuples: 20, BufferFraction: 0.2,
		Seed: 1, Model: ml.SVM{}, Opt: ml.NewSGD(0.1), Features: 2,
	})
	if err != nil {
		return err
	}
	single, err := dist.EffectiveOrder(ds, dist.Config{
		Workers: 1, GlobalBatch: 32, BlockTuples: 20, BufferFraction: 0.2,
		Seed: 1, Model: ml.SVM{}, Opt: ml.NewSGD(0.1), Features: 2,
	})
	if err != nil {
		return err
	}
	labelsOf := func(ids []int64) []float64 {
		labels := make([]float64, len(ids))
		for i, id := range ids {
			labels[i] = ds.Tuples[id].Label
		}
		return labels
	}
	tab := stats.NewTable("Data-order quality: multi-process vs single-process",
		"mode", "order correlation", "label mix score")
	tab.AddRow("2 workers (DDP)", stats.OrderCorrelation(multi), stats.LabelMixScore(labelsOf(multi), 20))
	tab.AddRow("1 worker", stats.OrderCorrelation(single), stats.LabelMixScore(labelsOf(single), 20))
	return tab.Write(w)
}
