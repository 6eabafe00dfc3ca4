package ml

import (
	"runtime"
	"sync"

	"corgipile/internal/data"
)

// gradAccumulator folds sparse per-tuple gradients into a dense accumulator,
// deduplicating repeated indices via a touched list so the optimizer's
// per-coordinate state is stepped once per mini-batch. It is the single
// reducer behind the Trainer and the batchEngine.
type gradAccumulator struct {
	acc     []float64 // dense gradient accumulator
	mark    []bool    // whether a coordinate is already in touched
	touched []int32
	gv      []float64 // gather buffer handed to Optimizer.Step
}

// Reset sizes the accumulator for a weight vector of dimension dim and
// clears any pending state. Buffers are reused when already large enough.
func (a *gradAccumulator) Reset(dim int) {
	if len(a.acc) < dim {
		a.acc = make([]float64, dim)
		a.mark = make([]bool, dim)
	}
	a.Clear()
}

// Add folds one sparse gradient into the accumulator. Entries are applied in
// slice order, so the floating-point accumulation order is exactly the order
// in which (gi, gv) pairs were produced.
func (a *gradAccumulator) Add(gi []int32, gv []float64) {
	for i, idx := range gi {
		a.addEntry(idx, gv[i])
	}
}

// addEntry folds one (index, value) entry: the first touch of a coordinate
// marks it and appends it to touched, then the value is added.
func (a *gradAccumulator) addEntry(idx int32, v float64) {
	if !a.mark[idx] {
		a.mark[idx] = true
		a.touched = append(a.touched, idx)
	}
	a.acc[idx] += v
}

// Gather scales the accumulated gradient by inv (1/batchSize for averaging)
// and returns it in sparse form. The returned slices are valid until the
// next Add, Gather, or Clear.
func (a *gradAccumulator) Gather(inv float64) ([]int32, []float64) {
	a.gv = a.gv[:0]
	for _, idx := range a.touched {
		a.gv = append(a.gv, a.acc[idx]*inv)
	}
	return a.touched, a.gv
}

// Clear zeroes the touched coordinates and empties the touched list, leaving
// capacity in place for the next batch.
func (a *gradAccumulator) Clear() {
	for _, idx := range a.touched {
		a.acc[idx] = 0
		a.mark[idx] = false
	}
	a.touched = a.touched[:0]
	a.gv = a.gv[:0]
}

// Step averages the accumulated gradient over count tuples, applies one
// optimizer step to w, and clears the accumulator.
func (a *gradAccumulator) Step(opt Optimizer, w []float64, count int) {
	if count <= 0 {
		return
	}
	gi, gv := a.Gather(1 / float64(count))
	opt.Step(w, gi, gv)
	a.Clear()
}

// gradDest is where a backward pass puts its gradient entries: appended to
// gi/gv, or — when acc is set — folded straight into acc by the same
// addEntry step Add applies to a (gi, gv) log. Either way every coordinate
// receives the same values in the same order.
type gradDest struct {
	gi  []int32
	gv  []float64
	acc *gradAccumulator
}

// put emits one gradient entry.
func (d *gradDest) put(idx int32, v float64) {
	if d.acc != nil {
		d.acc.addEntry(idx, v)
		return
	}
	d.gi = append(d.gi, idx)
	d.gv = append(d.gv, v)
}

// directGrader is implemented by models that can add a tuple's gradient
// straight into a gradAccumulator, skipping the (gi, gv) log. The entries
// and their order must be exactly GradWS's, so the accumulator ends up
// bit-identical to Add(GradWS(...)).
type directGrader interface {
	gradInto(ws *Workspace, w []float64, t *data.Tuple, acc *gradAccumulator) (loss float64)
}

// gradShard is one worker's slice of a mini-batch plus its private gradient
// scratch. Shards are fixed per engine and reused across batches.
type gradShard struct {
	ws     Workspace
	gi     []int32
	gv     []float64
	losses []float64

	// Per-batch inputs, set by Accumulate before dispatch.
	w     []float64
	batch []data.Tuple
}

// run computes the shard's per-tuple gradients at w, concatenated in tuple
// order into gi/gv, with per-tuple losses recorded for order-exact reduction.
func (s *gradShard) run(m Model) {
	s.gi = s.gi[:0]
	s.gv = s.gv[:0]
	s.losses = s.losses[:0]
	for i := range s.batch {
		var loss float64
		loss, s.gi, s.gv = GradWS(m, &s.ws, s.w, &s.batch[i], s.gi, s.gv)
		s.losses = append(s.losses, loss)
	}
}

// batchEngine computes mini-batch gradients on a fixed pool of worker
// goroutines — the compute side of the paper's Section 6.3 regime, where
// buffered I/O keeps tuples flowing and per-step CPU becomes the limiting
// factor.
//
// Determinism guarantee: the batch is split into contiguous shards and
// reduced in shard order, so every floating-point addition — both into the
// dense accumulator and into the loss sum — happens in exactly the global
// tuple order, independent of the worker count. With one shard and a
// directGrader model the gradients skip the log and go straight into the
// accumulator, tuple by tuple — the same additions in the same order.
// Identical inputs therefore produce bit-for-bit identical updates at any
// Procs setting.
type batchEngine struct {
	model  Model
	direct directGrader // model's direct path, nil when it has none
	procs  int
	shards []gradShard

	startOnce sync.Once
	jobs      chan *gradShard
	done      chan struct{}
	closed    bool
}

// newBatchEngine returns an engine for model using procs worker goroutines;
// procs <= 0 selects runtime.GOMAXPROCS(0). With procs == 1 gradients are
// computed inline and no goroutines are ever started.
func newBatchEngine(model Model, procs int) *batchEngine {
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	direct, _ := model.(directGrader)
	return &batchEngine{model: model, direct: direct, procs: procs, shards: make([]gradShard, procs)}
}

// Procs returns the engine's worker count.
func (e *batchEngine) Procs() int { return e.procs }

// start launches the fixed worker pool (first multi-shard batch only).
func (e *batchEngine) start() {
	e.jobs = make(chan *gradShard, e.procs)
	e.done = make(chan struct{}, e.procs)
	for i := 0; i < e.procs; i++ {
		go func() {
			for s := range e.jobs {
				s.run(e.model)
				e.done <- struct{}{}
			}
		}()
	}
}

// Accumulate computes the summed gradient of batch at w into acc and adds
// the per-tuple losses, in global tuple order, to *lossSum. It returns the
// number of tuples processed. Concurrent calls are not allowed (the engine
// owns one set of shards); distinct engines are independent.
func (e *batchEngine) Accumulate(w []float64, batch []data.Tuple, acc *gradAccumulator, lossSum *float64) int {
	n := len(batch)
	if n == 0 {
		return 0
	}
	k := e.procs
	if k > n {
		k = n
	}
	if k == 1 && e.direct != nil {
		ws := &e.shards[0].ws
		for i := range batch {
			*lossSum += e.direct.gradInto(ws, w, &batch[i], acc)
		}
		return n
	}
	for i := 0; i < k; i++ {
		s := &e.shards[i]
		s.w = w
		s.batch = batch[i*n/k : (i+1)*n/k]
	}
	if k == 1 {
		e.shards[0].run(e.model)
	} else {
		e.startOnce.Do(e.start)
		for i := 0; i < k; i++ {
			e.jobs <- &e.shards[i]
		}
		for i := 0; i < k; i++ {
			<-e.done
		}
	}
	// Deterministic reduce: shards are contiguous and visited in order, so
	// gradient and loss accumulation follow the global tuple order exactly.
	for i := 0; i < k; i++ {
		s := &e.shards[i]
		for _, l := range s.losses {
			*lossSum += l
		}
		acc.Add(s.gi, s.gv)
		s.w, s.batch = nil, nil
	}
	return n
}

// Close stops the worker pool. The engine must not be used afterwards.
// Closing an engine whose pool never started is a no-op.
func (e *batchEngine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.jobs != nil {
		close(e.jobs)
	}
}
