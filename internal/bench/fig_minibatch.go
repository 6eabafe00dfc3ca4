package bench

import (
	"fmt"
	"io"
	"math"

	"corgipile/internal/data"
	"corgipile/internal/executor"
	"corgipile/internal/iosim"
	"corgipile/internal/shuffle"
	"corgipile/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig16",
		Title: "Mini-batch LR and SVM end-to-end on SSD (batch 128)",
		Paper: "Figure 16",
		Run:   runFig16,
	})
	register(Experiment{
		ID:    "fig17",
		Title: "Mini-batch convergence under every strategy (batch 128)",
		Paper: "Figure 17",
		Run:   runFig17,
	})
	register(Experiment{
		ID:    "fig18",
		Title: "Linear regression and softmax regression end-to-end",
		Paper: "Figure 18",
		Run:   runFig18,
	})
	register(Experiment{
		ID:    "fig19",
		Title: "Converged accuracy on feature-ordered datasets",
		Paper: "Figure 19",
		Run:   runFig19,
	})
}

// runFig16 measures mini-batch end-to-end time on SSD for the in-DB
// strategies (MADlib/Bismarck lack mini-batch GLMs, so the comparison is
// across this system's own strategy plans, as in the paper).
func runFig16(w io.Writer, scale float64) error {
	kinds := []shuffle.Kind{
		shuffle.KindShuffleOnce, shuffle.KindNoShuffle,
		shuffle.KindBlockOnly, shuffle.KindCorgiPile,
	}
	for _, model := range []string{"lr", "svm"} {
		tab := stats.NewTable(fmt.Sprintf("Mini-batch %s on SSD, batch 128", model),
			"dataset", "strategy", "prep", "time to 98% of best", "total", "final acc")
		for _, workload := range data.GLMDatasets {
			outs := make([]*out, len(kinds))
			best := 0.0
			for i, kind := range kinds {
				o, err := run(spec{
					workload: workload, order: data.OrderClustered, scale: scale, device: iosim.SSD,
					compress: compressedWorkloads[workload],
					TrainConfig: executor.TrainConfig{Model: model, LearningRate: glmLR[workload] * 4,
						Decay: glmDecay, Epochs: 8, BatchSize: 128, Strategy: kind, DoubleBuffer: true},
				})
				if err != nil {
					return err
				}
				outs[i] = o
				if a := o.finalAcc(); a > best {
					best = a
				}
			}
			for i, kind := range kinds {
				o := outs[i]
				tta, reached := o.timeToAccuracy(best * 0.98)
				mark := ""
				if !reached {
					mark = " (never)"
				}
				tab.AddRow(workload, strategyLabel(kind), fmtSecs(o.prep),
					fmtSecs(tta)+mark, fmtSecs(o.total), o.finalAcc())
			}
		}
		if err := tab.Write(w); err != nil {
			return err
		}
	}
	return nil
}

// runFig17 sweeps mini-batch convergence across all strategies.
func runFig17(w io.Writer, scale float64) error {
	kinds := []shuffle.Kind{
		shuffle.KindShuffleOnce, shuffle.KindNoShuffle, shuffle.KindSlidingWindow,
		shuffle.KindMRS, shuffle.KindBlockOnly, shuffle.KindCorgiPile,
	}
	for _, model := range []string{"lr", "svm"} {
		for _, workload := range data.GLMDatasets {
			tab := stats.NewTable(
				fmt.Sprintf("Mini-batch %s on clustered %s (batch 128)", model, workload),
				"strategy", "e1", "e2", "e4", "final acc")
			for _, kind := range kinds {
				o, err := run(spec{
					workload: workload, order: data.OrderClustered, scale: scale, inMemory: true,
					TrainConfig: executor.TrainConfig{Model: model, LearningRate: glmLR[workload] * 4,
						Decay: glmDecay, Epochs: 8, BatchSize: 128, Strategy: kind},
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

// runFig18 extends the in-DB path to continuous and multi-class targets:
// linear regression on the YearPrediction-like dataset (metric R²) and
// softmax regression on the mini8m-like dataset.
func runFig18(w io.Writer, scale float64) error {
	kinds := []shuffle.Kind{
		shuffle.KindShuffleOnce, shuffle.KindNoShuffle,
		shuffle.KindBlockOnly, shuffle.KindCorgiPile,
	}
	jobs := []struct {
		workload, model, metric string
		lr                      float64
		batch                   int
	}{
		{"yearpred", "linreg", "R²", 0.01, 128},
		{"mini8m", "softmax", "accuracy", 0.05, 128},
	}
	for _, job := range jobs {
		tab := stats.NewTable(
			fmt.Sprintf("%s on clustered %s (%s, batch %d, SSD)", job.model, job.workload, job.metric, job.batch),
			"strategy", "prep", "time to 98% of best", "total", "final "+job.metric)
		outs := make([]*out, len(kinds))
		best := 0.0
		for i, kind := range kinds {
			o, err := run(spec{
				workload: job.workload, order: data.OrderClustered, scale: scale, device: iosim.SSD,
				TrainConfig: executor.TrainConfig{Model: job.model, LearningRate: job.lr, Decay: glmDecay,
					Epochs: 8, BatchSize: job.batch, Strategy: kind, DoubleBuffer: true},
			})
			if err != nil {
				return err
			}
			outs[i] = o
			if a := o.finalAcc(); a > best {
				best = a
			}
		}
		for i, kind := range kinds {
			o := outs[i]
			tta, reached := o.timeToAccuracy(best * 0.98)
			mark := ""
			if !reached {
				mark = " (never)"
			}
			tab.AddRow(strategyLabel(kind), fmtSecs(o.prep), fmtSecs(tta)+mark,
				fmtSecs(o.total), o.finalAcc())
		}
		if err := tab.Write(w); err != nil {
			return err
		}
	}
	return nil
}

// runFig19 orders each binary dataset by a feature instead of the label and
// compares converged accuracy of No Shuffle, CorgiPile and Shuffle Once —
// showing that simple scanning also fails on feature-ordered data. As in
// the paper, the sort feature is chosen among those most correlated with
// the label (Section 7.4.3 picks the highest-correlation features).
func runFig19(w io.Writer, scale float64) error {
	for _, model := range []string{"lr", "svm"} {
		tab := stats.NewTable(fmt.Sprintf("Converged %s accuracy on feature-ordered data", model),
			"dataset", "sort feature", "No Shuffle", "CorgiPile", "Shuffle Once")
		for _, workload := range []string{"higgs", "susy"} {
			for _, corr := range []string{"high-corr", "low-corr"} {
				base := data.Generate(workload, scale, data.OrderShuffled)
				var sortFeature int
				if corr == "high-corr" {
					// Real datasets carry attributes strongly correlated
					// with the label (the physics features of higgs/susy);
					// isotropic synthetic data does not, so inject one and
					// sort by it — ordering by such a feature approximates
					// label clustering.
					injectCorrelatedFeature(base, 0, 1.2)
					sortFeature = 0
				} else {
					sortFeature = leastCorrelatedFeature(base)
				}
				base.OrderByFeature(sortFeature)
				accs := map[shuffle.Kind]float64{}
				for _, kind := range []shuffle.Kind{shuffle.KindNoShuffle, shuffle.KindCorgiPile, shuffle.KindShuffleOnce} {
					o, err := runOnDataset(base, spec{
						workload: workload, scale: scale, inMemory: true,
						TrainConfig: executor.TrainConfig{Model: model, LearningRate: glmLR[workload],
							Decay: glmDecay, Epochs: 8, Strategy: kind},
					}, nil)
					if err != nil {
						return err
					}
					accs[kind] = o.finalAcc()
				}
				tab.AddRow(workload, corr, accs[shuffle.KindNoShuffle], accs[shuffle.KindCorgiPile], accs[shuffle.KindShuffleOnce])
			}
		}
		if err := tab.Write(w); err != nil {
			return err
		}
	}
	return nil
}

// injectCorrelatedFeature adds boost·label to dense feature j, modelling an
// attribute strongly correlated with the label (a timestamp under drift, a
// discriminative physics feature).
func injectCorrelatedFeature(ds *data.Dataset, j int, boost float64) {
	for i := range ds.Tuples {
		t := &ds.Tuples[i]
		if j < len(t.Dense) {
			t.Dense[j] += boost * t.Label
		}
	}
}

// leastCorrelatedFeature returns the index of the dense feature with the
// lowest absolute Pearson correlation with the label.
func leastCorrelatedFeature(ds *data.Dataset) int {
	n := float64(ds.Len())
	if n == 0 || ds.Features == 0 {
		return 0
	}
	meanX := make([]float64, ds.Features)
	var meanY float64
	for i := range ds.Tuples {
		t := &ds.Tuples[i]
		meanY += t.Label
		for j, v := range t.Dense {
			meanX[j] += v
		}
	}
	meanY /= n
	for j := range meanX {
		meanX[j] /= n
	}
	cov := make([]float64, ds.Features)
	varX := make([]float64, ds.Features)
	for i := range ds.Tuples {
		t := &ds.Tuples[i]
		dy := t.Label - meanY
		for j, v := range t.Dense {
			dx := v - meanX[j]
			cov[j] += dx * dy
			varX[j] += dx * dx
		}
	}
	best, bestCorr := 0, math.Inf(1)
	for j := range cov {
		if varX[j] == 0 {
			continue
		}
		c := cov[j] * cov[j] / varX[j]
		if c < bestCorr {
			best, bestCorr = j, c
		}
	}
	return best
}
