package bench

import (
	"fmt"
	"io"

	"corgipile/internal/data"
	"corgipile/internal/executor"
	"corgipile/internal/iosim"
	"corgipile/internal/shuffle"
	"corgipile/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "End-to-end in-DB SGD on HDD and SSD across the GLM datasets",
		Paper: "Figure 11",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "table3",
		Title: "Final train/test accuracy: Shuffle Once vs CorgiPile",
		Paper: "Table 3",
		Run:   runTable3,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Convergence of LR and SVM under every strategy, clustered data",
		Paper: "Figure 12",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "fig13",
		Title: "Per-epoch time: No Shuffle vs CorgiPile vs single-buffer CorgiPile",
		Paper: "Figure 13",
		Run:   runFig13,
	})
}

// glmLR holds per-workload learning rates tuned the way the paper grid
// searches {0.1, 0.01, 0.001}.
var glmLR = map[string]float64{
	"higgs": 0.02, "susy": 0.05, "epsilon": 0.01, "criteo": 0.1, "yfcc": 0.01,
}

// glmDecay is the per-epoch learning-rate decay for the GLM experiments.
// The paper's GLM runs converge within 1-3 epochs of a huge dataset; at
// this repo's scaled-down sizes an equivalent schedule needs the faster
// decay to quench the end-of-epoch block-sampling noise.
const glmDecay = 0.7

// compressedWorkloads marks the datasets PostgreSQL TOASTs (wide dense
// rows).
var compressedWorkloads = map[string]bool{"epsilon": true, "yfcc": true}

// runFig11 compares end-to-end time and accuracy of MADlib (Shuffle Once,
// extra per-tuple statistics), Bismarck (Shuffle Once and No Shuffle),
// Block-Only, and CorgiPile, on both device classes.
func runFig11(w io.Writer, scale float64) error {
	type system struct {
		name         string
		kind         shuffle.Kind
		computeScale float64
	}
	systems := []system{
		{"MADlib (Shuffle Once)", shuffle.KindShuffleOnce, 3},
		{"Bismarck (Shuffle Once)", shuffle.KindShuffleOnce, 1},
		{"Bismarck (No Shuffle)", shuffle.KindNoShuffle, 1},
		{"Block-Only Shuffle", shuffle.KindBlockOnly, 1},
		{"CorgiPile", shuffle.KindCorgiPile, 1},
	}
	for _, dev := range []iosim.Profile{iosim.HDD, iosim.SSD} {
		for _, workload := range data.GLMDatasets {
			tab := stats.NewTable(
				fmt.Sprintf("%s on %s (SVM)", workload, dev.Name),
				"system", "prep", "time to 98% of best", "total", "final acc")
			outs := make([]*out, len(systems))
			best := 0.0
			for i, sys := range systems {
				o, err := run(spec{
					workload: workload, order: data.OrderClustered, scale: scale, device: dev,
					compress: compressedWorkloads[workload], computeScale: sys.computeScale,
					TrainConfig: executor.TrainConfig{Model: "svm", LearningRate: glmLR[workload],
						Decay: glmDecay, Epochs: 8, Strategy: sys.kind, DoubleBuffer: true},
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
				tta, reached := o.timeToAccuracy(best * 0.98)
				mark := ""
				if !reached {
					mark = " (never)"
				}
				tab.AddRow(sys.name, fmtSecs(o.prep), fmtSecs(tta)+mark, fmtSecs(o.total), o.finalAcc())
			}
			if err := tab.Write(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// runTable3 reproduces the accuracy parity table: Shuffle Once vs CorgiPile
// on train and held-out test splits, LR and SVM, all five datasets.
func runTable3(w io.Writer, scale float64) error {
	tab := stats.NewTable("Final accuracy (SO | CorgiPile)",
		"dataset", "model", "train SO", "train CP", "test SO", "test CP", "gap(train)")
	for _, workload := range data.GLMDatasets {
		for _, model := range []string{"lr", "svm"} {
			row := make(map[shuffle.Kind][2]float64, 2)
			for _, kind := range []shuffle.Kind{shuffle.KindShuffleOnce, shuffle.KindCorgiPile} {
				ds := data.Generate(workload, scale, data.OrderClustered)
				train, test := splitEval(ds)
				o, err := runOnDataset(train, spec{
					workload: workload, scale: scale, inMemory: true,
					TrainConfig: executor.TrainConfig{Model: model, LearningRate: glmLR[workload],
						Decay: glmDecay, Epochs: 8, Strategy: kind},
				}, test)
				if err != nil {
					return err
				}
				row[kind] = [2]float64{o.res.Final().TrainAcc, o.res.Final().TestAcc}
			}
			so, cp := row[shuffle.KindShuffleOnce], row[shuffle.KindCorgiPile]
			tab.AddRow(workload, model, so[0], cp[0], so[1], cp[1], so[0]-cp[0])
		}
	}
	return tab.Write(w)
}

// runFig12 sweeps every strategy over LR and SVM on all clustered GLM
// datasets, reporting the convergence curve's key points.
func runFig12(w io.Writer, scale float64) error {
	kinds := []shuffle.Kind{
		shuffle.KindShuffleOnce, shuffle.KindNoShuffle, shuffle.KindSlidingWindow,
		shuffle.KindMRS, shuffle.KindBlockOnly, shuffle.KindCorgiPile,
	}
	for _, model := range []string{"lr", "svm"} {
		for _, workload := range data.GLMDatasets {
			tab := stats.NewTable(fmt.Sprintf("%s on clustered %s", model, workload),
				"strategy", "e1", "e2", "e4", "final acc")
			for _, kind := range kinds {
				o, err := run(spec{
					workload: workload, order: data.OrderClustered, scale: scale, inMemory: true,
					TrainConfig: executor.TrainConfig{Model: model, LearningRate: glmLR[workload],
						Epochs: 8, Strategy: kind},
				})
				if err != nil {
					return err
				}
				p := o.res.Points
				tab.AddRow(strategyLabel(kind), p[0].TrainAcc, p[1].TrainAcc, p[3].TrainAcc, o.finalAcc())
			}
			if err := tab.Write(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// runFig13 compares steady-state per-epoch times: the fastest No Shuffle
// baseline, double-buffered CorgiPile (expected within ~12%), and
// single-buffered CorgiPile.
func runFig13(w io.Writer, scale float64) error {
	for _, dev := range []iosim.Profile{iosim.HDD, iosim.SSD} {
		tab := stats.NewTable(fmt.Sprintf("Per-epoch time on %s (SVM)", dev.Name),
			"dataset", "No Shuffle", "CorgiPile (double)", "CorgiPile (single)", "double overhead", "double vs single")
		for _, workload := range data.GLMDatasets {
			times := map[string]float64{}
			for _, cfg := range []struct {
				label  string
				kind   shuffle.Kind
				double bool
			}{
				{"ns", shuffle.KindNoShuffle, false},
				{"cp2", shuffle.KindCorgiPile, true},
				{"cp1", shuffle.KindCorgiPile, false},
			} {
				o, err := run(spec{
					workload: workload, order: data.OrderClustered, scale: scale, device: dev,
					compress: compressedWorkloads[workload],
					TrainConfig: executor.TrainConfig{Model: "svm", LearningRate: glmLR[workload],
						Decay: glmDecay, Epochs: 5, Strategy: cfg.kind, DoubleBuffer: cfg.double},
				})
				if err != nil {
					return err
				}
				times[cfg.label] = o.perEpoch
			}
			tab.AddRow(workload,
				fmtSecs(times["ns"]), fmtSecs(times["cp2"]), fmtSecs(times["cp1"]),
				fmt.Sprintf("%+.1f%%", (times["cp2"]/times["ns"]-1)*100),
				fmt.Sprintf("%+.1f%%", (times["cp2"]/times["cp1"]-1)*100))
		}
		if err := tab.Write(w); err != nil {
			return err
		}
	}
	return nil
}
