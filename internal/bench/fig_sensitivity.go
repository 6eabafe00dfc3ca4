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
		ID:    "fig14",
		Title: "Sensitivity: buffer size (a) and block size (b)",
		Paper: "Figure 14",
		Run:   runFig14,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "Per-epoch time: in-DB CorgiPile vs out-of-DB (PyTorch-style) loop",
		Paper: "Figure 15",
		Run:   runFig15,
	})
	register(Experiment{
		ID:    "fig20",
		Title: "Random block-read throughput vs block size (Appendix A)",
		Paper: "Figure 20",
		Run:   runFig20,
	})
}

// runFig14 sweeps CorgiPile's two knobs on the large workloads: buffer
// fraction (convergence) and block size (per-epoch time).
func runFig14(w io.Writer, scale float64) error {
	// (a) Buffer-size sensitivity: convergence at 1/2/5/10%.
	for _, workload := range []string{"criteo", "yfcc"} {
		tab := stats.NewTable(fmt.Sprintf("(a) CorgiPile convergence on %s by buffer size", workload),
			"buffer", "e1", "e2", "e4", "final acc")
		soFinal := 0.0
		{
			o, err := run(spec{
				workload: workload, order: data.OrderClustered, scale: scale, inMemory: true,
				TrainConfig: executor.TrainConfig{Model: "svm", LearningRate: glmLR[workload],
					Decay: glmDecay, Epochs: 8, Strategy: shuffle.KindShuffleOnce},
			})
			if err != nil {
				return err
			}
			soFinal = o.finalAcc()
			p := o.res.Points
			tab.AddRow("Shuffle Once", p[0].TrainAcc, p[1].TrainAcc, p[3].TrainAcc, soFinal)
		}
		for _, frac := range []float64{0.01, 0.02, 0.05, 0.10} {
			o, err := run(spec{
				workload: workload, order: data.OrderClustered, scale: scale, inMemory: true,
				TrainConfig: executor.TrainConfig{Model: "svm", LearningRate: glmLR[workload],
					Decay: glmDecay, Epochs: 8, Strategy: shuffle.KindCorgiPile, BufferFraction: frac},
			})
			if err != nil {
				return err
			}
			p := o.res.Points
			tab.AddRow(fmt.Sprintf("%.0f%%", frac*100), p[0].TrainAcc, p[1].TrainAcc, p[3].TrainAcc, o.finalAcc())
		}
		if err := tab.Write(w); err != nil {
			return err
		}
	}

	// (b) Block-size sensitivity: per-epoch time on HDD. The paper sweeps
	// 2/10/50 MB blocks; here the sweep is expressed relative to this
	// dataset's 10 MB-equivalent block (1/5x, 1x, 5x).
	tab := stats.NewTable("(b) CorgiPile per-epoch time on HDD by block size",
		"dataset", "2MB-equiv", "10MB-equiv", "50MB-equiv")
	for _, workload := range []string{"criteo", "yfcc"} {
		base := paperBlockEquiv(data.Generate(workload, scale, data.OrderClustered))
		row := []any{workload}
		for _, bs := range []int64{base / 5, base, base * 5} {
			o, err := run(spec{
				workload: workload, order: data.OrderClustered, scale: scale, device: iosim.HDD,
				compress: compressedWorkloads[workload],
				TrainConfig: executor.TrainConfig{Model: "svm", LearningRate: glmLR[workload],
					Decay: glmDecay, Epochs: 3, Strategy: shuffle.KindCorgiPile, BlockSize: bs},
			})
			if err != nil {
				return err
			}
			row = append(row, fmtSecs(o.perEpoch))
		}
		tab.AddRow(row...)
	}
	return tab.Write(w)
}

// runFig15 compares per-epoch time of the in-DB stack against an
// out-of-DB in-memory loop with interpreter-style per-tuple overhead (the
// paper's PyTorch comparison), plus CorgiPile-vs-NoShuffle overhead outside
// the DB.
func runFig15(w io.Writer, scale float64) error {
	// Per-tuple Python/C++ dispatch overhead: the paper observes PyTorch is
	// 2–16x slower per tuple than the in-DB C path on GLM datasets.
	const pyOverhead = 12.0

	tab := stats.NewTable("Per-epoch time (SVM, SSD)",
		"dataset", "in-DB CorgiPile", "PyTorch-style (No Shuffle)", "PyTorch-style (CorgiPile)", "in-DB speedup", "CP-vs-NS overhead outside DB")
	for _, workload := range data.GLMDatasets {
		inDB, err := run(spec{
			workload: workload, order: data.OrderClustered, scale: scale, device: iosim.SSD,
			compress: compressedWorkloads[workload],
			TrainConfig: executor.TrainConfig{Model: "svm", LearningRate: glmLR[workload], Decay: glmDecay,
				Epochs: 4, Strategy: shuffle.KindCorgiPile, DoubleBuffer: true},
		})
		if err != nil {
			return err
		}
		pyNS, err := run(spec{
			workload: workload, order: data.OrderClustered, scale: scale, inMemory: true,
			computeScale: pyOverhead,
			TrainConfig: executor.TrainConfig{Model: "svm", LearningRate: glmLR[workload], Decay: glmDecay,
				Epochs: 4, Strategy: shuffle.KindNoShuffle},
		})
		if err != nil {
			return err
		}
		pyCP, err := run(spec{
			workload: workload, order: data.OrderClustered, scale: scale, inMemory: true,
			computeScale: pyOverhead,
			TrainConfig: executor.TrainConfig{Model: "svm", LearningRate: glmLR[workload], Decay: glmDecay,
				Epochs: 4, Strategy: shuffle.KindCorgiPile},
		})
		if err != nil {
			return err
		}
		tab.AddRow(workload,
			fmtSecs(inDB.perEpoch), fmtSecs(pyNS.perEpoch), fmtSecs(pyCP.perEpoch),
			fmt.Sprintf("%.1fx", pyNS.perEpoch/inDB.perEpoch),
			fmt.Sprintf("%+.1f%%", (pyCP.perEpoch/pyNS.perEpoch-1)*100))
	}
	return tab.Write(w)
}

// runFig20 reproduces the Appendix A I/O study: random block-read
// throughput approaches sequential throughput as blocks grow.
func runFig20(w io.Writer, scale float64) error {
	const total = 1 << 30
	tab := stats.NewTable("Random block-read throughput (MB/s)",
		"block size", "hdd", "hdd % of seq", "ssd", "ssd % of seq")
	seqHDD := iosim.SequentialReadThroughput(iosim.HDD, total)
	seqSSD := iosim.SequentialReadThroughput(iosim.SSD, total)
	for bs := int64(64 << 10); bs <= 64<<20; bs *= 4 {
		h := iosim.RandomBlockReadThroughput(iosim.HDD, total, bs)
		s := iosim.RandomBlockReadThroughput(iosim.SSD, total, bs)
		tab.AddRow(formatBytes(bs),
			fmt.Sprintf("%.1f", h/1e6), fmt.Sprintf("%.1f%%", h/seqHDD*100),
			fmt.Sprintf("%.1f", s/1e6), fmt.Sprintf("%.1f%%", s/seqSSD*100))
	}
	tab.AddRow("sequential", fmt.Sprintf("%.1f", seqHDD/1e6), "100%",
		fmt.Sprintf("%.1f", seqSSD/1e6), "100%")
	return tab.Write(w)
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
