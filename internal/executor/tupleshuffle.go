package executor

import (
	"fmt"
	"math/rand"

	"corgipile/internal/data"
	"corgipile/internal/shuffle"
)

// TupleShuffleOp buffers tuples pulled from its child and emits them in
// shuffled order — the paper's second new physical operator. The buffer
// itself (fill to Capacity, split the straddling block, shuffle, and with
// DoubleBuffer the Section 6.3 overlap accounting on the simulated clock) is
// the embedded shuffle.TupleBuffer, the same one shuffle.New(KindCorgiPile)
// streams from; this operator adds the Volcano protocol around it and the
// Async mode.
type TupleShuffleOp struct {
	// TupleBuffer carries the settable fields: Capacity, DoubleBuffer,
	// Clock, CopyCost and Obs.
	shuffle.TupleBuffer
	child blockOperator
	rng   *rand.Rand
	// Async runs the fill side on a real background goroutine, streaming
	// shuffled buffers through a channel — the write-thread/read-thread
	// structure of Section 6.3 with actual concurrency. It is mutually
	// exclusive with Clock-based time accounting (real goroutine
	// interleavings are nondeterministic, simulated time is not); Init
	// rejects the combination.
	Async bool

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
	return &TupleShuffleOp{
		TupleBuffer: shuffle.TupleBuffer{Capacity: capacity},
		child:       asBlocks(child), rng: rng,
	}
}

// Init implements Operator.
func (op *TupleShuffleOp) Init() error {
	if op.Async && op.Clock != nil {
		return fmt.Errorf("executor: TupleShuffle Async mode excludes simulated-time accounting")
	}
	return op.restart(op.child.Init)
}

// ReScan implements Operator: it resets the buffer I/O state and re-scans
// the child, exactly the ExecReScan chain of Section 6.2.
func (op *TupleShuffleOp) ReScan() error { return op.restart(op.child.ReScan) }

// restart stops the async write thread (it may be mid-NextBlock on the
// child), resets the child, then settles whatever scan was in progress and
// starts the buffer over.
func (op *TupleShuffleOp) restart(resetChild func() error) error {
	op.stopAsync()
	if err := resetChild(); err != nil {
		return err
	}
	op.Reset(op.child, op.rng)
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
			buf, exhausted, err := op.Fill(make([]data.Tuple, 0, op.Capacity))
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
	if op.fills == nil {
		op.startAsync()
	}
	for {
		if t, ok := op.Pop(); ok {
			return t, true, nil
		}
		fill, ok := <-op.fills
		if !ok || fill.err != nil {
			return nil, false, fill.err
		}
		op.Load(fill.buf)
	}
}

// Next implements Operator.
func (op *TupleShuffleOp) Next() (*data.Tuple, bool, error) {
	// The per-tuple path, in either mode: Pop inlines to a bounds check, a
	// pointer and an increment.
	if t, ok := op.Pop(); ok {
		return t, true, nil
	}
	if op.Async {
		return op.nextAsync()
	}
	t, ok := op.TupleBuffer.Next()
	return t, ok, op.Err()
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
	op.Settle()
	return op.child.Close()
}
