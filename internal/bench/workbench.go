package bench

import (
	"fmt"
	"math/rand"
	"time"

	"corgipile/internal/core"
	"corgipile/internal/data"
	"corgipile/internal/executor"
	"corgipile/internal/iosim"
	"corgipile/internal/shuffle"
	"corgipile/internal/storage"
)

// spec fully describes one training run on simulated storage: the dataset,
// the storage under it, and the run's knobs.
type spec struct {
	workload string
	order    data.Order
	scale    float64

	device   iosim.Profile // on-device runs only
	compress bool

	computeScale float64
	inMemory     bool // skip the storage engine (PyTorch-style in-memory)

	// TrainConfig holds the run's knobs (BlockSize 0 = paperBlockEquiv) and
	// hooks; Metrics also watches the clock and the device, so
	// out.res.Breakdown carries one row per epoch.
	executor.TrainConfig
}

// paperBlockEquiv returns the block size playing the role of the paper's
// recommended 10 MB setting for this (scaled-down) dataset: 1/256 of the
// data, i.e. N = 256 blocks — the same block-count regime as 50 GB tables
// with 10 MB blocks at paper scale.
func paperBlockEquiv(ds *data.Dataset) int64 {
	b := ds.ByteSize() / 256
	if b < 2<<10 {
		b = 2 << 10
	}
	return b
}

// scaledDevice shrinks the profile's seek latency in proportion to the
// dataset's shrinkage (default block vs the paper's 10 MB), preserving the
// paper's seek-to-transfer ratio at every block size in a sweep.
func scaledDevice(prof iosim.Profile, ds *data.Dataset) iosim.Profile {
	scale := float64(paperBlockEquiv(ds)) / float64(10<<20)
	if scale > 1 {
		scale = 1
	}
	prof.SeekLatency = time.Duration(float64(prof.SeekLatency) * scale)
	return prof
}

// bigWorkloads marks the datasets that exceed the paper machine's 32 GB RAM
// (criteo, yfcc): their tables never fully fit the OS cache, so every epoch
// stays disk-bound (Section 7.3.4).
var bigWorkloads = map[string]bool{"criteo": true, "yfcc": true}

// cacheBytes models the OS cache capacity relative to the dataset.
func cacheBytes(workload string, ds *data.Dataset) int64 {
	if bigWorkloads[workload] {
		return ds.ByteSize() * 3 / 10
	}
	return ds.ByteSize() * 4
}

// out is the outcome of one run.
type out struct {
	res *core.Result
	// prep is the simulated time of strategy preprocessing (Shuffle Once's
	// full sort); total is prep plus all epochs.
	prep, total float64
	// perEpoch is the mean per-epoch time over the steady-state epochs
	// (epoch 2 onward when available, since epoch 1 warms the OS cache).
	perEpoch float64
}

// run executes the spec and collects its timing summary.
func run(s spec) (*out, error) {
	return runOnDataset(data.Generate(s.workload, s.scale, s.order), s, nil)
}

// splitEval holds out 20% of the dataset for test evaluation, preserving
// the train set's physical order.
func splitEval(ds *data.Dataset) (train, test *data.Dataset) {
	return ds.Split(0.2, rand.New(rand.NewSource(997)))
}

// runOnDataset executes the spec over an explicit dataset, optionally
// evaluating a held-out test set each epoch.
func runOnDataset(ds *data.Dataset, s spec, test *data.Dataset) (*out, error) {
	clock := iosim.NewClock()
	s.Metrics.WithClock(clock)
	var src shuffle.Source
	if s.inMemory {
		// Match the on-device regime: N = 256 blocks.
		src = shuffle.NewMemSource(ds, max(ds.Len()/256, 1)).WithClock(clock, 0)
	} else {
		if s.BlockSize == 0 {
			s.BlockSize = paperBlockEquiv(ds)
		}
		dev := iosim.NewDevice(scaledDevice(s.device, ds), clock).
			WithCache(cacheBytes(s.workload, ds)).WithObs(s.Metrics)
		tab, err := storage.Build(dev, ds, storage.Options{
			BlockSize: s.BlockSize,
			Compress:  s.compress,
		})
		if err != nil {
			return nil, err
		}
		src = shuffle.TableSource(tab)
	}
	cfg, err := s.Plan(ds.Features, ds.Classes)
	if err != nil {
		return nil, err
	}
	cfg.SGD.Clock, cfg.SGD.TrainEval, cfg.SGD.TestEval = clock, ds, test
	cfg.SGD.ComputeScale = s.computeScale
	op, err := executor.BuildSGDPlan(src, cfg)
	if err != nil {
		return nil, err
	}
	prep := clock.Now().Seconds() // Shuffle Once pays its sort at build.
	res, err := op.RunResult()
	if err != nil {
		return nil, err
	}

	o := &out{res: res, prep: prep, total: clock.Now().Seconds()}
	// Steady-state per-epoch time.
	pts := res.Points
	if len(pts) >= 2 {
		o.perEpoch = (pts[len(pts)-1].Seconds - pts[0].Seconds) / float64(len(pts)-1)
	} else if len(pts) == 1 {
		o.perEpoch = pts[0].Seconds
	}
	return o, nil
}

// timeToAccuracy returns the simulated time (seconds, including prep) at
// which the run first reached the target accuracy, or its total time and
// false if it never did.
func (o *out) timeToAccuracy(target float64) (float64, bool) {
	for _, p := range o.res.Points {
		if p.TrainAcc >= target {
			return o.prep + p.Seconds, true
		}
	}
	return o.total, false
}

// finalAcc returns the run's converged train accuracy (R² for regression):
// the best value over the last half of the epochs, the plateau the paper's
// convergence plots read off. Late-epoch SGD fluctuates around the plateau,
// so the last single epoch under-reports it.
func (o *out) finalAcc() float64 {
	pts := o.res.Points
	if len(pts) == 0 {
		return 0
	}
	best := 0.0
	for _, p := range pts[len(pts)/2:] {
		if p.TrainAcc > best {
			best = p.TrainAcc
		}
	}
	return best
}

// strategyLabel gives the display name the paper uses for a strategy.
func strategyLabel(k shuffle.Kind) string {
	switch k {
	case shuffle.KindNoShuffle:
		return "No Shuffle"
	case shuffle.KindShuffleOnce:
		return "Shuffle Once"
	case shuffle.KindEpochShuffle:
		return "Epoch Shuffle"
	case shuffle.KindSlidingWindow:
		return "Sliding-Window"
	case shuffle.KindMRS:
		return "MRS"
	case shuffle.KindBlockOnly:
		return "Block-Only"
	case shuffle.KindCorgiPile:
		return "CorgiPile"
	}
	return string(k)
}

// emitOrder draws one epoch of the strategy over a clustered dataset and
// returns the emitted tuple ids and labels — the raw material of the
// Figure 3/4 distribution plots.
func emitOrder(kind shuffle.Kind, tuples, perBlock int, bufferFrac float64, seed int64) (ids []int64, labels []float64, err error) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: tuples, Features: 2, Order: data.OrderClustered, Seed: 90 + seed})
	src := shuffle.NewMemSource(ds, perBlock)
	st, err := shuffle.New(kind, src, shuffle.Options{BufferFraction: bufferFrac, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	it, err := st.StartEpoch(0)
	if err != nil {
		return nil, nil, err
	}
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		ids = append(ids, t.ID)
		labels = append(labels, t.Label)
	}
	return ids, labels, it.Err()
}

// fullShuffleOrder returns the ideal full-shuffle order for comparison.
func fullShuffleOrder(tuples int, seed int64) (ids []int64, labels []float64) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(tuples)
	for _, p := range perm {
		ids = append(ids, int64(p))
		label := -1.0
		if p >= tuples/2 {
			label = 1.0
		}
		labels = append(labels, label)
	}
	return ids, labels
}

// fmtSecs renders seconds compactly.
func fmtSecs(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0fs", s)
	case s >= 1:
		return fmt.Sprintf("%.1fs", s)
	case s >= 0.001:
		return fmt.Sprintf("%.1fms", s*1000)
	default:
		return fmt.Sprintf("%.0fµs", s*1e6)
	}
}
