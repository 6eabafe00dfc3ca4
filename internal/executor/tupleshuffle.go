package executor

import (
	"fmt"
	"math/rand"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/obs"
)

// TupleShuffleOp buffers tuples pulled from its child and emits them in
// shuffled order — the paper's second new physical operator. With
// DoubleBuffer enabled it models the Section 6.3 optimization: a write
// thread fills and shuffles one buffer while the read thread drains the
// other, overlapping the child's I/O with the consumer's compute. The
// overlap is accounted deterministically through an iosim.Pipeline on the
// shared simulated clock.
type TupleShuffleOp struct {
	child blockOperator
	rng   *rand.Rand
	// Capacity is the buffer size in tuples.
	Capacity int
	// DoubleBuffer enables fill/consume overlap accounting.
	DoubleBuffer bool
	// Clock is the simulated clock (nil disables all time accounting).
	Clock *iosim.Clock
	// CopyCost is the CPU cost of copying one tuple into the buffer.
	CopyCost time.Duration
	// Obs, when non-nil, receives refill counts and fill/consume times
	// under the obs.Shuffle* metric names.
	Obs *obs.Registry
	// Async runs the fill side on a real background goroutine, streaming
	// shuffled buffers through a channel — the write-thread/read-thread
	// structure of Section 6.3 with actual concurrency. It is mutually
	// exclusive with Clock-based time accounting (real goroutine
	// interleavings are nondeterministic, simulated time is not); Init
	// rejects the combination.
	Async bool

	buf       []data.Tuple
	pos       int
	exhausted bool
	// rest is the tail of a block that straddled the buffer capacity, held
	// for the next fill. It aliases the child's current block.
	rest []data.Tuple

	pipe      *iosim.Pipeline
	consStart time.Duration
	consuming bool

	fills chan asyncFill
	done  chan struct{}
}

// asyncFill is one shuffled buffer produced by the async write thread.
type asyncFill struct {
	buf []data.Tuple
	err error
}

// NewTupleShuffle returns a shuffling buffer of the given tuple capacity
// over child.
func NewTupleShuffle(child Operator, capacity int, rng *rand.Rand) *TupleShuffleOp {
	if capacity < 1 {
		capacity = 1
	}
	return &TupleShuffleOp{child: asBlocks(child), Capacity: capacity, rng: rng}
}

// Init implements Operator.
func (op *TupleShuffleOp) Init() error {
	if op.Async && op.Clock != nil {
		return fmt.Errorf("executor: TupleShuffle Async mode excludes simulated-time accounting")
	}
	if err := op.child.Init(); err != nil {
		return err
	}
	op.resetEpoch()
	return nil
}

// startAsync launches the write thread for the current scan.
func (op *TupleShuffleOp) startAsync() {
	op.fills = make(chan asyncFill, 1) // double buffering: one in flight
	op.done = make(chan struct{})
	go func(fills chan<- asyncFill, done <-chan struct{}) {
		defer close(fills)
		send := func(f asyncFill) bool {
			select {
			case fills <- f:
				return true
			case <-done:
				return false
			}
		}
		for {
			buf, exhausted, err := op.fill(make([]data.Tuple, 0, op.Capacity))
			if err != nil {
				send(asyncFill{err: err})
				return
			}
			if len(buf) > 0 {
				op.rng.Shuffle(len(buf), func(i, j int) { buf[i], buf[j] = buf[j], buf[i] })
				if !send(asyncFill{buf: buf}) {
					return
				}
			}
			if exhausted {
				return
			}
		}
	}(op.fills, op.done)
}

// nextAsync serves tuples from the async fill stream.
func (op *TupleShuffleOp) nextAsync() (*data.Tuple, bool, error) {
	for op.pos >= len(op.buf) {
		fill, ok := <-op.fills
		if !ok {
			return nil, false, nil
		}
		if fill.err != nil {
			return nil, false, fill.err
		}
		op.buf, op.pos = fill.buf, 0
		op.recordOccupancy()
	}
	t := &op.buf[op.pos]
	op.pos++
	return t, true, nil
}

// recordOccupancy reports the buffer fill level on the live-only gauges,
// mirroring the dataset-level iterator: outside live mode only the peak
// high-water mark is kept (JobStats.PeakBufferOccupancy), so passive
// traces are unchanged.
func (op *TupleShuffleOp) recordOccupancy() {
	op.Obs.SetLiveGauge(obs.ShuffleBufferTuples, float64(len(op.buf)))
	op.Obs.SetLiveGauge(obs.ShuffleBufferOccupancy, float64(len(op.buf))/float64(op.Capacity))
}

// BufferLen returns the number of tuples currently held in the shuffle
// buffer — the profiler's occupancy probe.
func (op *TupleShuffleOp) BufferLen() int { return len(op.buf) }

// Next implements Operator.
func (op *TupleShuffleOp) Next() (*data.Tuple, bool, error) {
	if op.Async {
		if op.fills == nil {
			op.startAsync()
		}
		return op.nextAsync()
	}
	for op.pos >= len(op.buf) {
		if op.exhausted {
			op.finishPipeline()
			return nil, false, nil
		}
		if err := op.refill(); err != nil {
			return nil, false, err
		}
		if len(op.buf) == 0 && op.exhausted {
			op.finishPipeline()
			return nil, false, nil
		}
	}
	t := &op.buf[op.pos]
	op.pos++
	return t, true, nil
}

// fill appends the child's tuples to buf, a block at a time, until buf holds
// Capacity tuples or the child is exhausted. A block that does not fit is
// split: its tail waits in op.rest and opens the next fill, so the child is
// asked for a block — and the device read — only when the buffer still has
// room and nothing is held over. It is the one fill loop, shared by refill
// and the async write thread.
func (op *TupleShuffleOp) fill(buf []data.Tuple) (_ []data.Tuple, exhausted bool, err error) {
	for len(buf) < op.Capacity {
		if len(op.rest) == 0 {
			block, ok, err := op.child.NextBlock()
			if err != nil {
				return buf, false, err
			}
			if !ok {
				return buf, true, nil
			}
			op.rest = block
		}
		n := min(len(op.rest), op.Capacity-len(buf))
		buf = append(buf, op.rest[:n]...)
		op.rest = op.rest[n:]
	}
	return buf, false, nil
}

// refill pulls up to Capacity tuples from the child and shuffles them.
func (op *TupleShuffleOp) refill() error {
	var fillStart time.Duration
	if op.pipelined() && op.consuming {
		op.consumeFor(op.Clock.Now() - op.consStart)
		op.consuming = false
	}
	if op.Clock != nil {
		fillStart = op.Clock.Now()
	}
	sp := op.Obs.Span(obs.SpanRefill)

	op.pos = 0
	var err error
	op.buf, op.exhausted, err = op.fill(op.buf[:0])
	if err != nil {
		sp.End()
		// A failing child aborts the epoch: settle the simulated
		// clock to the pipeline's completion time instead of leaving
		// it mid-pipeline (mirrors corgiIter.Next's error path).
		op.settlePipeline()
		return err
	}
	if op.Clock != nil && op.CopyCost > 0 {
		op.Clock.Advance(time.Duration(len(op.buf)) * op.CopyCost)
	}
	op.rng.Shuffle(len(op.buf), func(i, j int) {
		op.buf[i], op.buf[j] = op.buf[j], op.buf[i]
	})

	sp.End()
	op.Obs.Inc(obs.ShuffleRefills)
	op.recordOccupancy()
	if op.Clock != nil {
		op.Obs.AddDuration(obs.ShuffleFillNanos, op.Clock.Now()-fillStart)
	}
	if op.pipelined() {
		consStart := op.pipe.Fill(op.Clock.Now() - fillStart)
		op.Clock.Set(consStart)
		op.consStart = consStart
		op.consuming = true
	}
	return nil
}

// consumeFor closes one consume interval on the pipeline and reports it.
func (op *TupleShuffleOp) consumeFor(d time.Duration) {
	op.pipe.Consume(d)
	op.Obs.AddDuration(obs.ShuffleConsumeNanos, d)
}

func (op *TupleShuffleOp) pipelined() bool {
	return op.DoubleBuffer && op.Clock != nil
}

func (op *TupleShuffleOp) finishPipeline() {
	if !op.pipelined() || !op.consuming {
		return
	}
	op.consumeFor(op.Clock.Now() - op.consStart)
	op.Clock.Set(op.pipe.End())
	op.consuming = false
}

// settlePipeline closes any open consume interval and advances the clock to
// the pipeline's completion time — the teardown path for epochs that end
// abnormally (child error, early Close, mid-epoch ReScan). Unlike
// finishPipeline it never rewinds the clock: an aborted fill has already
// charged partial serial time that the pipeline never saw.
func (op *TupleShuffleOp) settlePipeline() {
	if !op.pipelined() || op.pipe == nil {
		return
	}
	if op.consuming {
		op.consumeFor(op.Clock.Now() - op.consStart)
		op.consuming = false
	}
	if end := op.pipe.End(); end > op.Clock.Now() {
		op.Clock.Set(end)
	}
}

func (op *TupleShuffleOp) resetEpoch() {
	op.stopAsync()
	op.settlePipeline()
	op.buf, op.pos, op.exhausted, op.rest = nil, 0, false, nil
	op.consuming = false
	if op.DoubleBuffer && op.Clock != nil {
		op.pipe = iosim.NewPipeline(2, op.Clock.Now())
	} else {
		op.pipe = nil
	}
}

// ReScan implements Operator: it resets the buffer I/O state and re-scans
// the child, exactly the ExecReScan chain of Section 6.2.
func (op *TupleShuffleOp) ReScan() error {
	// The async write thread must stop before the child is reset: it may
	// be mid-Next on the child.
	op.stopAsync()
	if err := op.child.ReScan(); err != nil {
		return err
	}
	op.resetEpoch()
	return nil
}

// stopAsync terminates a running write thread and drains its channel.
func (op *TupleShuffleOp) stopAsync() {
	if op.fills == nil {
		return
	}
	close(op.done)
	for range op.fills {
	}
	op.fills, op.done = nil, nil
}

// Close implements Operator. Closing a partially-consumed pipelined epoch
// settles the simulated clock to the pipeline's completion time, so callers
// that abandon a scan mid-epoch still observe consistent accounting.
func (op *TupleShuffleOp) Close() error {
	op.stopAsync()
	op.settlePipeline()
	return op.child.Close()
}
