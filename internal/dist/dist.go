// Package dist implements multi-process CorgiPile (Section 5): data-parallel
// mini-batch SGD across PN workers, each holding a private tuple-shuffle
// buffer over its share of a common per-epoch block permutation, with
// gradients averaged across workers after every batch (the AllReduce step
// of PyTorch's DistributedDataParallel mode).
//
// Figure 5's argument is that this is single-process mini-batch CorgiPile
// over the merged order, and the package is written that way: Train is a
// shell over core.Loop, fed the merged multi-worker stream with BatchSize =
// GlobalBatch. The workers are shuffle.TupleBuffers over shares of one
// shuffle.BlockCursor order, and the AllReduce is ml.Trainer's mini-batch
// accumulator, which sums the merged batch in order on one goroutine. What
// is specific to dist is the partition of the block order and the
// parallel-time model: each worker accrues I/O, copy and compute time on a
// private lane clock, and an epoch advances the caller's clock by the slowest
// lane plus a fixed synchronization cost per optimizer step.
package dist

import (
	"fmt"
	"math/rand"
	"time"

	"corgipile/internal/core"
	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/shuffle"
)

// Config configures a distributed training run.
type Config struct {
	// Workers is the number of data-parallel processes (the paper's PN).
	Workers int
	// Epochs is the number of passes over the data.
	Epochs int
	// GlobalBatch is the total mini-batch size; each worker contributes
	// GlobalBatch/Workers tuples per round (the paper's bs/PN).
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
	// Seed drives all randomness. As in the paper, every worker visits its
	// share of one block permutation drawn from the shared seed.
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
	// SyncCost is the simulated AllReduce cost per batch.
	SyncCost time.Duration
	// ComputeScale multiplies the per-tuple gradient compute cost, for
	// modelling heavier learners (a ResNet forward+backward costs ~500x an
	// MLP gradient). Zero means 1.
	ComputeScale float64

	// Eval, when non-nil, is evaluated after each epoch (accuracy, or R² for
	// a regression dataset).
	Eval *data.Dataset
}

// withDefaults validates the configuration and fills in its defaults.
func (c Config) withDefaults() (Config, error) {
	if c.Workers < 1 {
		return c, fmt.Errorf("dist: Workers must be >= 1")
	}
	if c.Model == nil || c.Opt == nil {
		return c, fmt.Errorf("dist: Model and Opt are required")
	}
	if c.BlockTuples < 1 {
		return c, fmt.Errorf("dist: BlockTuples must be >= 1")
	}
	c.Epochs = max(c.Epochs, 1)
	c.GlobalBatch = max(c.GlobalBatch, c.Workers)
	if c.BufferFraction <= 0 {
		c.BufferFraction = shuffle.DefaultBufferFraction
	}
	if c.ComputeScale == 0 {
		c.ComputeScale = 1
	}
	return c, nil
}

// Train runs distributed data-parallel training over ds and returns the
// convergence trace.
func Train(ds *data.Dataset, cfg Config) (*core.Result, error) {
	s, err := newStream(ds, cfg)
	if err != nil {
		return nil, err
	}
	cfg = s.cfg
	// The loop runs clockless: time is charged on the workers' lanes and
	// reaches cfg.Clock once per epoch, below.
	l, err := core.NewLoop(core.RunConfig{
		Model: cfg.Model, Opt: cfg.Opt, Features: cfg.Features,
		Epochs: cfg.Epochs, BatchSize: cfg.GlobalBatch,
		TrainEval: cfg.Eval, InitWeights: cfg.InitWeights,
		ComputeScale: cfg.ComputeScale,
	})
	if err != nil {
		return nil, err
	}
	l.Reset()
	res := l.Result()
	var start time.Duration
	if cfg.Clock != nil {
		start = cfg.Clock.Now()
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		s.startEpoch()
		if _, err := l.Step(s.next, func() error { return s.err }); err != nil {
			return nil, err
		}
		if cfg.Clock != nil {
			cfg.Clock.Advance(s.epochTime())
			res.Points[epoch].Seconds = (cfg.Clock.Now() - start).Seconds()
		}
	}
	return res, nil
}

// EffectiveOrder returns the sequence of tuple IDs the first epoch of the
// distributed run consumes, merged in global batch order — the quantity
// Figure 5 compares against single-process CorgiPile.
func EffectiveOrder(ds *data.Dataset, cfg Config) ([]int64, error) {
	s, err := newStream(ds, cfg)
	if err != nil {
		return nil, err
	}
	s.startEpoch()
	var order []int64
	for t, ok := s.next(); ok; t, ok = s.next() {
		order = append(order, t.ID)
	}
	return order, s.err
}

// workerShare returns the number of tuples worker i contributes to one
// global batch: globalBatch/workers, with the remainder distributed one
// tuple each to the first globalBatch%workers workers so every full round
// hands out exactly globalBatch tuples (not workers·⌊globalBatch/workers⌋).
func workerShare(globalBatch, workers, i int) int {
	n := globalBatch / workers
	if i < globalBatch%workers {
		n++
	}
	return n
}

// worker is one data-parallel process: a tuple-shuffle buffer (or, without
// tuple shuffle, the bare cursor) over its share of the epoch's block order,
// charging a private lane clock.
type worker struct {
	lane *iosim.Clock // simulated time this worker has spent this epoch
	src  *shuffle.MemSource
	cur  shuffle.BlockCursor
	buf  shuffle.TupleBuffer
	rng  *rand.Rand
}

// stream is the merged multi-worker tuple stream of one run: round by round,
// workerShare tuples from every worker in worker order. Batches of
// GlobalBatch consecutive tuples are what the paper's workers average their
// gradients over.
type stream struct {
	cfg     Config
	rng     *rand.Rand          // draws each epoch's block order; also worker 0's shuffle rng
	perm    shuffle.BlockCursor // the epoch's block order, never read through
	workers []*worker

	round  []data.Tuple // the current round, copied out of the workers' buffers
	pos    int          // next tuple of round to hand out
	handed int          // tuples pulled this epoch
	err    error
}

// newStream validates cfg, fills in its defaults (s.cfg is the result) and
// builds the run's workers.
func newStream(ds *data.Dataset, cfg Config) (*stream, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &stream{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		perm:    shuffle.NewBlockCursor(shuffle.NewMemSource(ds, cfg.BlockTuples)),
		workers: make([]*worker, cfg.Workers),
	}
	// DESIGN.md "Buffer policy": the total tuple budget split PN ways.
	capacity := max(1, int(cfg.BufferFraction*float64(ds.Len()))/cfg.Workers)
	for i := range s.workers {
		wk := &worker{lane: iosim.NewClock(), rng: s.rng}
		if i > 0 {
			wk.rng = rand.New(rand.NewSource(cfg.Seed + int64(i)))
		}
		wk.src = shuffle.NewMemSource(ds, cfg.BlockTuples).WithClock(wk.lane, cfg.BlockReadCost)
		wk.buf = shuffle.TupleBuffer{Capacity: capacity, Clock: wk.lane, CopyCost: shuffle.CopyCost}
		s.workers[i] = wk
	}
	return s, nil
}

// startEpoch draws the epoch's block order and splits it PN ways — exactly
// the Section 5.1 block-shuffle step.
func (s *stream) startEpoch() {
	var blockRng *rand.Rand
	if !s.cfg.NoBlockShuffle {
		blockRng = s.rng
	}
	s.perm.Reset(blockRng)
	numBlocks := s.workers[0].src.NumBlocks()
	for i, wk := range s.workers {
		wk.lane.Reset()
		wk.cur = s.perm.Narrow(wk.src, i*numBlocks/s.cfg.Workers, (i+1)*numBlocks/s.cfg.Workers)
		wk.buf.Reset(&wk.cur, wk.rng)
	}
	s.handed = 0
}

// next hands out the merged order. The epoch ends after a round in which
// every worker was dry, or on an error.
func (s *stream) next() (*data.Tuple, bool) {
	if s.pos == len(s.round) && !s.nextRound() {
		return nil, false
	}
	s.pos++
	return &s.round[s.pos-1], true
}

// nextRound pulls one round: workerShare tuples from each worker, so every
// full round is exactly one global batch. Each tuple's gradient compute is
// charged to its worker's lane as it is handed out.
func (s *stream) nextRound() bool {
	s.round, s.pos = s.round[:0], 0
	for i, wk := range s.workers {
		for n := workerShare(s.cfg.GlobalBatch, s.cfg.Workers, i); n > 0 && s.err == nil; n-- {
			t, ok, err := wk.next(!s.cfg.NoTupleShuffle)
			if !ok {
				s.err = err
				break
			}
			wk.lane.Advance(time.Duration(float64(ml.GradCost(t.NNZ())) * s.cfg.ComputeScale))
			s.round = append(s.round, *t)
		}
	}
	s.handed += len(s.round)
	return len(s.round) > 0 && s.err == nil
}

// next returns the worker's next tuple: through its shuffle buffer, or
// straight off the block cursor.
func (wk *worker) next(shuffled bool) (*data.Tuple, bool, error) {
	if !shuffled {
		return wk.cur.Next()
	}
	t, ok := wk.buf.Next()
	return t, ok, wk.buf.Err()
}

// epochTime is the parallel-time model: what the epoch cost on the caller's
// clock — the slowest lane plus one synchronization per optimizer step
// (GlobalBatch tuples of the merged order; the last may be short).
func (s *stream) epochTime() time.Duration {
	var slowest time.Duration
	for _, wk := range s.workers {
		slowest = max(slowest, wk.lane.Now())
	}
	steps := (s.handed + s.cfg.GlobalBatch - 1) / s.cfg.GlobalBatch
	return slowest + time.Duration(steps)*s.cfg.SyncCost
}
