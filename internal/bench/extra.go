package bench

import (
	"fmt"
	"io"

	"corgipile/internal/core"
	"corgipile/internal/data"
	"corgipile/internal/executor"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/shuffle"
	"corgipile/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "ablation",
		Title: "CorgiPile design ablations: block shuffle, tuple shuffle, buffering",
		Paper: "DESIGN.md",
		Run:   runAblation,
	})
	register(Experiment{
		ID:    "theory",
		Title: "h_D estimates and Theorem 1/2 bounds per workload",
		Paper: "Section 4.2",
		Run:   runTheory,
	})
}

// runAblation isolates each of CorgiPile's design choices on one clustered
// workload: remove the tuple-level shuffle (Block-Only), remove the
// block-level shuffle (a sequentially filled shuffle buffer — exactly the
// sliding-window family), shrink the buffer, and disable double buffering.
func runAblation(w io.Writer, scale float64) error {
	tab := stats.NewTable("Ablations on clustered higgs (SVM, SSD)",
		"variant", "final acc", "per-epoch time", "Δacc vs full", "Δtime vs full")
	type variant struct {
		name string
		s    spec
	}
	base := spec{
		workload: "higgs", order: data.OrderClustered, scale: scale, device: iosim.SSD,
		TrainConfig: executor.TrainConfig{Model: "svm", LearningRate: glmLR["higgs"], Decay: glmDecay, Epochs: 8},
	}
	full := base
	full.Strategy, full.DoubleBuffer = shuffle.KindCorgiPile, true
	variants := []variant{
		{"CorgiPile (full)", full},
		{"− tuple shuffle (Block-Only)", func() spec { s := base; s.Strategy = shuffle.KindBlockOnly; return s }()},
		{"− block shuffle (Sliding-Window)", func() spec { s := base; s.Strategy = shuffle.KindSlidingWindow; return s }()},
		{"− double buffering", func() spec { s := full; s.DoubleBuffer = false; return s }()},
		{"buffer 1% instead of 10%", func() spec { s := full; s.BufferFraction = 0.01; return s }()},
		{"− everything (No Shuffle)", func() spec { s := base; s.Strategy = shuffle.KindNoShuffle; return s }()},
	}
	var fullOut *out
	for i, v := range variants {
		o, err := run(v.s)
		if err != nil {
			return err
		}
		if i == 0 {
			fullOut = o
		}
		tab.AddRow(v.name, o.finalAcc(), fmtSecs(o.perEpoch),
			fmt.Sprintf("%+.3f", o.finalAcc()-fullOut.finalAcc()),
			fmt.Sprintf("%+.1f%%", (o.perEpoch/fullOut.perEpoch-1)*100))
	}
	return tab.Write(w)
}

// runTheory estimates h_D at the zero-weight point for every GLM workload
// in clustered and shuffled order, evaluates the Theorem 1/2 bounds, and
// prints the buffer size the bound recommends — the paper's analysis
// machinery turned into a tool.
func runTheory(w io.Writer, scale float64) error {
	tab := stats.NewTable("Block-variance factor h_D and recommended buffers (LR at w=0)",
		"dataset", "order", "h_D", "thm1 bound @10%", "thm2 bound @10%", "recommended buffer")
	for _, workload := range data.GLMDatasets {
		for _, order := range []data.Order{data.OrderClustered, data.OrderShuffled} {
			ds := data.Generate(workload, scale, order)
			blockTuples := ds.Len() / 256
			if blockTuples < 1 {
				blockTuples = 1
			}
			model := ml.LogisticRegression{}
			wts := make([]float64, model.Dim(ds.Features))
			hd := core.HDFactor(model, wts, ds, blockTuples)

			n := (ds.Len() + blockTuples - 1) / blockTuples
			params := core.BoundParams{
				N: n, Nbuf: n / 10, B: blockTuples, M: ds.Len(),
				HD: hd, Sigma2: 1, T: 8 * ds.Len(),
			}
			rec, _, _ := core.RecommendBuffer(params, 1.10)
			tab.AddRow(workload, order.String(),
				fmt.Sprintf("%.2f", hd),
				fmt.Sprintf("%.3g", core.Theorem1Bound(params)),
				fmt.Sprintf("%.3g", core.Theorem2Bound(params)),
				fmt.Sprintf("%d/%d blocks (%.1f%%)", rec, n, float64(rec)/float64(n)*100))
		}
	}
	return tab.Write(w)
}

func init() {
	register(Experiment{
		ID:    "table2",
		Title: "Dataset inventory: synthetic stand-ins and their shapes",
		Paper: "Table 2",
		Run:   runTable2,
	})
}

// runTable2 materializes every workload and reports its actual shape — the
// reproduction's counterpart of the paper's dataset table.
func runTable2(w io.Writer, scale float64) error {
	tab := stats.NewTable("Workloads at scale "+fmt.Sprintf("%.2g", scale),
		"paper dataset", "stand-in", "type", "tuples", "features", "classes", "bytes")
	names := []string{"higgs", "susy", "epsilon", "criteo", "yfcc", "cifar10", "imagenet", "yelp", "yearpred", "mini8m"}
	for _, name := range names {
		ds := data.Generate(name, scale, data.OrderClustered)
		kind := "dense"
		if ds.Len() > 0 && ds.Tuples[0].IsSparse() {
			kind = "sparse"
		}
		classes := fmt.Sprintf("%d", ds.Classes)
		if ds.Task == data.TaskRegression {
			classes = "—"
		}
		tab.AddRow(name, ds.Name, kind, ds.Len(), ds.Features, classes, ds.ByteSize())
	}
	return tab.Write(w)
}

func init() {
	register(Experiment{
		ID:    "drift",
		Title: "Timestamp-ordered data under concept drift",
		Paper: "Section 1 motivation",
		Run:   runDrift,
	})
}

// runDrift exercises the introduction's other clustered-order source: data
// ordered by timestamp under concept drift. Scanning in storage order
// leaves the model fitted to the most recent concept only; CorgiPile mixes
// the stream and recovers Shuffle-Once accuracy.
func runDrift(w io.Writer, scale float64) error {
	n := int(8000 * scale)
	if n < 800 {
		n = 800
	}
	ds := data.SyntheticDrift(data.SyntheticConfig{
		Name: "drift", Tuples: n, Features: 16, Separation: 2.0, Noise: 1.0,
		Order: data.OrderClustered, Seed: 77})
	tab := stats.NewTable("SVM on timestamp-ordered drifting data",
		"strategy", "e1", "e4", "final acc")
	for _, kind := range []shuffle.Kind{shuffle.KindNoShuffle, shuffle.KindSlidingWindow, shuffle.KindCorgiPile, shuffle.KindShuffleOnce} {
		o, err := runOnDataset(ds, spec{
			workload: "drift", inMemory: true,
			TrainConfig: executor.TrainConfig{Model: "svm", LearningRate: 0.05, Decay: glmDecay, Epochs: 8,
				Strategy: kind},
		}, nil)
		if err != nil {
			return err
		}
		p := o.res.Points
		tab.AddRow(strategyLabel(kind), p[0].TrainAcc, p[3].TrainAcc, o.finalAcc())
	}
	return tab.Write(w)
}
