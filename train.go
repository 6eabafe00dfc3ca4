package corgipile

import (
	"fmt"
	"time"

	"corgipile/internal/executor"
	"corgipile/internal/iosim"
	"corgipile/internal/shuffle"
	"corgipile/internal/storage"
)

// TrainConfig configures a high-level training run; its zero knobs take the
// defaults WithDefaults fills in.
type TrainConfig = executor.TrainConfig

// Train runs SGD over an in-memory dataset with the configured shuffling
// strategy and returns the convergence trace. I/O is not simulated; use
// TrainOnDevice for end-to-end timing over simulated storage.
func Train(ds *Dataset, cfg TrainConfig) (*Result, error) {
	// N = 256 blocks, the same block-count regime as the paper's 10 MB
	// blocks over multi-GB tables.
	src := shuffle.NewMemSource(ds, max(ds.Len()/256, 1))
	return trainOn(src, ds, cfg, nil)
}

// TrainOnDevice lays the dataset out as a table on a simulated device,
// trains with the configured strategy, and returns the trace with simulated
// times (including any strategy preprocessing such as Shuffle Once's full
// sort). The returned clock holds the total simulated duration.
func TrainOnDevice(ds *Dataset, cfg TrainConfig) (*Result, *Clock, error) {
	cfg = cfg.WithDefaults()
	prof, ok := iosim.ProfileByName(cfg.Device)
	if !ok {
		return nil, nil, fmt.Errorf("corgipile: unknown device %q", cfg.Device)
	}
	clock := iosim.NewClock()
	cfg.Metrics.WithClock(clock)
	dev := iosim.NewDevice(prof, clock).WithCache(16 << 30).WithObs(cfg.Metrics)
	if cfg.Faults != nil {
		dev.WithFaults(*cfg.Faults)
	}
	tab, err := storage.Build(dev, ds, storage.Options{BlockSize: cfg.BlockSize})
	if err != nil {
		return nil, nil, err
	}
	res, err := trainOn(shuffle.TableSource(tab), ds, cfg, clock)
	return res, clock, err
}

// trainOn is the shared implementation of Train and TrainOnDevice.
func trainOn(src shuffle.Source, ds *Dataset, cfg TrainConfig, clock *Clock) (*Result, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("corgipile: empty dataset")
	}
	pc, err := cfg.Plan(ds.Features, ds.Classes)
	if err != nil {
		return nil, err
	}
	pc.SGD.Clock, pc.SGD.TrainEval = clock, ds
	op, err := executor.BuildSGDPlan(src, pc)
	if err != nil {
		return nil, err
	}
	return op.RunResult()
}

// CorgiPileDataset is the paper's PyTorch-style dataset API: it streams the
// tuples of an in-memory dataset in two-level shuffled order, one epoch at
// a time. Construct it once, then call Epoch for each pass:
//
//	cds := corgipile.NewCorgiPileDataset(ds, 0.1, 100, 1)
//	for epoch := 0; epoch < 10; epoch++ {
//		next := cds.Epoch(epoch)
//		for t, ok := next(); ok; t, ok = next() {
//			// feed t to the training loop
//		}
//	}
type CorgiPileDataset struct {
	src *shuffle.MemSource
	st  Strategy
}

// NewCorgiPileDataset wraps ds with two-level shuffling: blocks of
// blockTuples tuples, an in-memory buffer of bufferFraction of the dataset,
// randomness from seed.
func NewCorgiPileDataset(ds *Dataset, bufferFraction float64, blockTuples int, seed int64) (*CorgiPileDataset, error) {
	src := shuffle.NewMemSource(ds, blockTuples)
	st, err := shuffle.New(CorgiPile, src, shuffle.Options{
		BufferFraction: bufferFraction,
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	return &CorgiPileDataset{src: src, st: st}, nil
}

// Epoch returns a pull function streaming epoch s's shuffled tuples.
func (c *CorgiPileDataset) Epoch(s int) func() (*Tuple, bool) {
	it, err := c.st.StartEpoch(s)
	if err != nil {
		// MemSource epochs cannot fail; guard anyway.
		return func() (*Tuple, bool) { return nil, false }
	}
	return it.Next
}

// SimulatedSeconds converts a simulated duration to seconds for reporting.
func SimulatedSeconds(d time.Duration) float64 { return d.Seconds() }
