// Package dist implements multi-process CorgiPile (Section 5): data-parallel
// mini-batch SGD across PN workers, each holding a private tuple-shuffle
// buffer over its share of a common per-epoch block permutation, with
// gradients averaged across workers after every batch (the AllReduce step
// of PyTorch's DistributedDataParallel mode).
//
// An optimizer step takes GlobalBatch tuples of the merged multi-worker order
// and sums their gradients in global tuple order, so training is bit-for-bit
// deterministic (DESIGN.md "Buffer policy" has the worker policy).
// Simulated time models the parallel hardware: each worker accrues its own
// I/O, buffer-copy and compute time, and an epoch advances the shared clock
// by the slowest worker plus the per-step synchronization cost.
package dist

import (
	"fmt"
	"math/rand"
	"time"

	"corgipile/internal/core"
	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
	"corgipile/internal/shuffle"
)

// Config configures a distributed training run.
type Config struct {
	// Workers is the number of data-parallel processes (the paper's PN).
	Workers int
	// Epochs is the number of passes over the data.
	Epochs int
	// GlobalBatch is the total mini-batch size; each worker contributes
	// GlobalBatch/Workers tuples per step (the paper's bs/PN).
	GlobalBatch int
	// BufferFraction is the *total* shuffle-buffer budget as a fraction of
	// the dataset; each worker gets BufferFraction/Workers (Section 5.1
	// step 3).
	BufferFraction float64
	// BlockTuples is the number of tuples per storage block.
	BlockTuples int
	// NoBlockShuffle disables the per-epoch block permutation, giving the
	// distributed No Shuffle baseline (workers scan contiguous partitions).
	NoBlockShuffle bool
	// NoTupleShuffle disables the per-buffer tuple shuffle (Block-Only).
	NoTupleShuffle bool
	// Seed drives all randomness. As in the paper, every worker derives
	// the same block permutation from the shared seed.
	Seed int64

	// Model, Opt, Features and InitWeights define the learner.
	Model       ml.Model
	Opt         ml.Optimizer
	Features    int
	InitWeights func(w []float64)

	// Clock, when non-nil, receives the simulated epoch times.
	Clock *iosim.Clock
	// BlockReadCost is the simulated time for one worker to fetch one
	// block from the parallel file system.
	BlockReadCost time.Duration
	// SyncCost is a fixed simulated AllReduce cost per batch. When
	// NetBandwidth is set, a ring-AllReduce model is used instead:
	// 2·(PN−1)/PN · modelBytes / NetBandwidth + 2·(PN−1)·NetLatency,
	// the standard bandwidth-optimal ring schedule.
	SyncCost time.Duration
	// NetBandwidth is the per-link bandwidth in bytes/second for the ring
	// AllReduce model (0 disables it, falling back to SyncCost).
	NetBandwidth float64
	// NetLatency is the per-hop latency for the ring AllReduce model.
	NetLatency time.Duration
	// ComputeScale multiplies the per-tuple gradient compute cost, for
	// modelling heavier learners (a ResNet forward+backward costs ~500x an
	// MLP gradient). Zero means 1.
	ComputeScale float64

	// Eval, when non-nil, is evaluated after each epoch.
	Eval *data.Dataset

	// Faults, when non-nil and enabled, injects deterministic worker
	// crashes; see FaultPlan. Crash counts land in Result.Faults and, when
	// Obs is attached, under obs.DistWorkerCrashes.
	Faults *FaultPlan
	// Obs, when non-nil, receives crash counters.
	Obs *obs.Registry
	// OnBatch, when non-nil, observes every optimizer step: the epoch
	// (0-based), the batch index within it, and the tuples consumed. Tests
	// use it to verify the global batch never shrinks under crashes.
	OnBatch func(epoch, batch, tuples int)
}

// syncCostPerBatch returns the simulated gradient-synchronization time per
// batch for a model of dim float64 weights.
func (c Config) syncCostPerBatch(dim int) time.Duration {
	if c.NetBandwidth <= 0 {
		return c.SyncCost
	}
	pn := float64(c.Workers)
	modelBytes := float64(dim * 8)
	transfer := 2 * (pn - 1) / pn * modelBytes / c.NetBandwidth
	return time.Duration(transfer*float64(time.Second)) + time.Duration(2*(c.Workers-1))*c.NetLatency
}

func (c Config) validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("dist: Workers must be >= 1")
	}
	if c.Model == nil || c.Opt == nil {
		return fmt.Errorf("dist: Model and Opt are required")
	}
	if c.BlockTuples < 1 {
		return fmt.Errorf("dist: BlockTuples must be >= 1")
	}
	return nil
}

// Train runs distributed data-parallel training over ds and returns the
// convergence trace. On ErrWorkerLost it returns the epochs completed so far
// with the crash count, and the clock has been charged for the aborted epoch.
func Train(ds *data.Dataset, cfg Config) (*core.Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Epochs < 1 {
		cfg.Epochs = 1
	}
	if cfg.GlobalBatch < cfg.Workers {
		cfg.GlobalBatch = cfg.Workers
	}
	if cfg.BufferFraction <= 0 {
		cfg.BufferFraction = 0.1
	}

	dim := cfg.Model.Dim(cfg.Features)
	w := make([]float64, dim)
	if cfg.InitWeights != nil {
		cfg.InitWeights(w)
	}
	cfg.Opt.Reset(dim)

	res := &core.Result{W: w}

	var acc ml.GradAccumulator
	acc.Reset(dim)
	syncPerBatch := cfg.syncCostPerBatch(dim)

	var start time.Duration
	if cfg.Clock != nil {
		start = cfg.Clock.Now()
	}

	totalCrashes := 0
	detect := time.Duration(0)
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		detect = cfg.Faults.detectTimeout()
	}

	// deadPrev tracks which workers ended the previous epoch crashed; they
	// come back with the fresh per-epoch worker set (the rebuilt process
	// re-reads its partition), which we surface as a rejoin.
	deadPrev := make([]bool, cfg.Workers)
	rngs := workerRngs(cfg)

	// Gradient scratch of the optimizer step, and the tuples of the merged
	// order handed out but not yet stepped on.
	var ws ml.Workspace
	var gi []int32
	var gv []float64
	var pending []data.Tuple

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		workers := makeWorkers(ds, cfg, epoch, rngs)
		for i := range deadPrev {
			if deadPrev[i] {
				deadPrev[i] = false
				cfg.Obs.Inc(obs.DistWorkerRejoins)
				cfg.Obs.EmitEvent("dist.worker.rejoin", map[string]any{
					"worker": i, "epoch": epoch + 1,
				})
			}
		}
		alive := make([]*worker, 0, len(workers))
		var lossSum float64
		var tuples, steps, lost int
		pending = pending[:0]

		// step takes one optimizer step over batch — GlobalBatch tuples of
		// the merged order, or the epoch's short tail — with the gradient and
		// the loss summed in global tuple order.
		step := func(batch []data.Tuple) {
			for i := range batch {
				var loss float64
				loss, gi, gv = ml.GradWS(cfg.Model, &ws, w, &batch[i], gi[:0], gv[:0])
				lossSum += loss
				acc.Add(gi, gv)
			}
			acc.Step(cfg.Opt, w, len(batch))
			if cfg.OnBatch != nil {
				cfg.OnBatch(epoch, steps, len(batch))
			}
			steps++
		}

		var lostErr error
		for {
			// Crash detection happens at the synchronization barrier: a
			// worker whose schedule says it died since the last round is
			// dropped here, charging the AllReduce detection timeout. The
			// survivors then split the unchanged global batch between them
			// (workerShare over len(alive)), so no round shrinks.
			alive = alive[:0]
			for i, wk := range workers {
				if !wk.dead && wk.crashAt >= 0 && wk.consumed >= wk.crashAt {
					wk.dead = true
					deadPrev[i] = true
					totalCrashes++
					lost++
					cfg.Obs.Inc(obs.DistWorkerCrashes)
					cfg.Obs.EmitEvent("dist.worker.crash", map[string]any{
						"worker": i, "epoch": epoch + 1, "consumed": wk.consumed,
					})
				}
				if !wk.dead {
					alive = append(alive, wk)
				}
			}
			if len(alive) == 0 {
				lostErr = fmt.Errorf("dist: epoch %d: all %d workers crashed: %w",
					epoch+1, cfg.Workers, ErrWorkerLost)
				break
			}
			if cfg.Faults != nil && cfg.Faults.MaxCrashes > 0 && totalCrashes > cfg.Faults.MaxCrashes {
				lostErr = fmt.Errorf("dist: %d worker crashes exceed cap %d: %w",
					totalCrashes, cfg.Faults.MaxCrashes, ErrWorkerLost)
				break
			}

			// One round: each surviving worker hands out its share, in worker
			// order. An optimizer step is GlobalBatch tuples of that merged
			// order, whichever rounds they came from.
			count := 0
			for i, wk := range alive {
				wk.pull(workerShare(cfg.GlobalBatch, len(alive), i))
				pending = append(pending, wk.batch...)
				count += len(wk.batch)
			}
			if count == 0 {
				break
			}
			tuples += count
			for len(pending) >= cfg.GlobalBatch {
				step(pending[:cfg.GlobalBatch])
				pending = pending[:copy(pending, pending[cfg.GlobalBatch:])]
			}
		}
		if len(pending) > 0 {
			step(pending)
		}
		cfg.Opt.EndEpoch()

		var epochWall time.Duration // max over worker clocks
		for _, wk := range workers {
			if wk.clock > epochWall {
				epochWall = wk.clock
			}
		}
		if cfg.Clock != nil {
			// A lost run is charged what its aborted epoch spent.
			cfg.Clock.Advance(epochWall + time.Duration(steps)*syncPerBatch + time.Duration(lost)*detect)
		}
		if lostErr != nil {
			finishFaults(res, totalCrashes)
			return res, lostErr
		}
		p := core.EpochPoint{Epoch: epoch + 1, Tuples: tuples}
		if tuples > 0 {
			p.AvgLoss = lossSum / float64(tuples)
		}
		if cfg.Clock != nil {
			p.Seconds = (cfg.Clock.Now() - start).Seconds()
		}
		if cfg.Eval != nil {
			p.TrainAcc = ml.Accuracy(cfg.Model, w, cfg.Eval)
		}
		res.Points = append(res.Points, p)
	}
	finishFaults(res, totalCrashes)
	return res, nil
}

// finishFaults records the crash count on a (possibly partial) result.
func finishFaults(res *core.Result, crashes int) {
	res.Faults.WorkerCrashes = crashes
}

// workerShare returns the number of tuples worker i contributes to one
// global batch: globalBatch/workers, with the remainder distributed one
// tuple each to the first globalBatch%workers workers so every full batch
// consumes exactly globalBatch tuples (not workers·⌊globalBatch/workers⌋).
func workerShare(globalBatch, workers, i int) int {
	n := globalBatch / workers
	if i < globalBatch%workers {
		n++
	}
	return n
}

// worker is one data-parallel process: a private iterator over its block
// share, charging a private clock.
type worker struct {
	it           *workerIter
	batch        []data.Tuple
	clock        time.Duration // private simulated time this epoch
	computeScale float64

	// Crash-injection state: the worker dies once it has consumed crashAt
	// tuples (-1 = never); dead workers are dropped at the next barrier.
	crashAt  int
	consumed int
	dead     bool
}

// pull fills the worker's batch with up to n tuples, charging each tuple's
// gradient compute to the worker's clock as it is handed out. Tuples are
// copied by value: the iterator's buffer is recycled across refills, so
// retaining pointers into it would alias stale storage.
func (wk *worker) pull(n int) {
	wk.batch = wk.batch[:0]
	for len(wk.batch) < n {
		t, ok := wk.it.next(&wk.clock)
		if !ok {
			break
		}
		wk.clock += time.Duration(float64(ml.GradCost(t.NNZ())) * wk.computeScale)
		wk.batch = append(wk.batch, *t)
	}
	wk.consumed += len(wk.batch)
}

// workerRngs returns the run's random sources, one per worker. rngs[0] is
// the run's own: it draws every epoch's block order and shuffles worker 0's
// buffer, exactly as single-process CorgiPile's does, so Workers = 1 is that
// strategy. Worker i >= 1 owns a private source derived from (Seed, i).
func workerRngs(cfg Config) []*rand.Rand {
	rngs := make([]*rand.Rand, cfg.Workers)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(cfg.Seed + int64(i)))
	}
	return rngs
}

// makeWorkers builds the per-epoch worker set: one block permutation split
// PN ways, exactly the Section 5.1 block-shuffle step.
func makeWorkers(ds *data.Dataset, cfg Config, epoch int, rngs []*rand.Rand) []*worker {
	numBlocks := (ds.Len() + cfg.BlockTuples - 1) / cfg.BlockTuples
	var perm []int
	if cfg.NoBlockShuffle {
		perm = make([]int, numBlocks)
		for i := range perm {
			perm[i] = i
		}
	} else {
		perm = rngs[0].Perm(numBlocks)
	}

	// DESIGN.md "Buffer policy": the total tuple budget split PN ways.
	capacity := max(1, int(cfg.BufferFraction*float64(ds.Len()))/cfg.Workers)

	computeScale := cfg.ComputeScale
	if computeScale == 0 {
		computeScale = 1
	}
	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		lo := i * numBlocks / cfg.Workers
		hi := (i + 1) * numBlocks / cfg.Workers
		workers[i] = &worker{
			it: &workerIter{
				ds:       ds,
				blocks:   perm[lo:hi],
				per:      cfg.BlockTuples,
				capacity: capacity,
				shuf:     !cfg.NoTupleShuffle,
				rng:      rngs[i],
				read:     cfg.BlockReadCost,
			},
			computeScale: computeScale,
			crashAt:      -1,
		}
	}
	scheduleCrashes(ds, cfg, epoch, workers)
	return workers
}

// scheduleCrashes draws the epoch's deterministic crash schedule. Exactly
// two random draws are consumed per worker regardless of the outcome, so
// the schedule of worker i is independent of the other workers' fates and
// stable across runs with the same fault seed.
func scheduleCrashes(ds *data.Dataset, cfg Config, epoch int, workers []*worker) {
	if cfg.Faults == nil || !cfg.Faults.Enabled() {
		return
	}
	seed := cfg.Faults.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed + int64(epoch)*104729))
	for _, wk := range workers {
		crash := rng.Float64() < cfg.Faults.CrashProb
		frac := rng.Float64()
		if !crash {
			continue
		}
		// The crash point is a fraction of the worker's epoch share, so
		// crashes land anywhere from the first batch to the last.
		share := 0
		for _, b := range wk.it.blocks {
			lo := b * cfg.BlockTuples
			hi := lo + cfg.BlockTuples
			if hi > ds.Len() {
				hi = ds.Len()
			}
			share += hi - lo
		}
		wk.crashAt = int(frac * float64(share))
	}
}

// workerIter is the per-worker CorgiPile iterator: a local buffer of capacity
// tuples that splits the straddling block, tuple-shuffled. Without tuple
// shuffle there is nothing to buffer: it streams its blocks one at a time.
type workerIter struct {
	ds       *data.Dataset
	blocks   []int
	per      int
	capacity int
	shuf     bool
	rng      *rand.Rand
	read     time.Duration

	idx  int
	buf  []data.Tuple
	pos  int
	rest []data.Tuple // tail of the straddling block
}

// next returns the next tuple, charging I/O and buffer-copy time to the
// worker clock.
func (it *workerIter) next(clock *time.Duration) (*data.Tuple, bool) {
	for it.pos >= len(it.buf) {
		it.buf = it.buf[:0]
		it.pos = 0
		for len(it.buf) < it.capacity {
			if len(it.rest) == 0 {
				if it.idx >= len(it.blocks) {
					break
				}
				b := it.blocks[it.idx]
				it.idx++
				it.rest = it.ds.Tuples[b*it.per : min(b*it.per+it.per, it.ds.Len())]
				*clock += it.read
			}
			n := len(it.rest)
			if it.shuf {
				n = min(n, it.capacity-len(it.buf))
			}
			it.buf = append(it.buf, it.rest[:n]...)
			it.rest = it.rest[n:]
			if !it.shuf {
				break
			}
		}
		if len(it.buf) == 0 {
			return nil, false
		}
		if it.shuf {
			*clock += time.Duration(len(it.buf)) * shuffle.CopyCost
			it.rng.Shuffle(len(it.buf), func(i, j int) {
				it.buf[i], it.buf[j] = it.buf[j], it.buf[i]
			})
		}
	}
	t := &it.buf[it.pos]
	it.pos++
	return t, true
}

// EffectiveOrder returns the sequence of tuple IDs the distributed run
// consumes, merged in global batch order — the quantity Figure 5 compares
// against single-process CorgiPile.
func EffectiveOrder(ds *data.Dataset, cfg Config) ([]int64, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.GlobalBatch < cfg.Workers {
		cfg.GlobalBatch = cfg.Workers
	}
	if cfg.BufferFraction <= 0 {
		cfg.BufferFraction = 0.1
	}
	workers := makeWorkers(ds, cfg, 0, workerRngs(cfg))
	var order []int64
	for {
		emitted := false
		for i, wk := range workers {
			wk.pull(workerShare(cfg.GlobalBatch, cfg.Workers, i))
			for i := range wk.batch {
				order = append(order, wk.batch[i].ID)
				emitted = true
			}
		}
		if !emitted {
			return order, nil
		}
	}
}
