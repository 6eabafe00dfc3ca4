package executor

import (
	"math/rand"

	"corgipile/internal/data"
	"corgipile/internal/shuffle"
)

// TupleShuffleOp buffers tuples pulled from its child and emits them in
// shuffled order — the paper's second new physical operator. The buffer
// itself (fill to Capacity, split the straddling block, shuffle, and with
// DoubleBuffer the Section 6.3 overlap accounting on the simulated clock) is
// the embedded shuffle.TupleBuffer, the same one shuffle.New(KindCorgiPile)
// streams from; this operator adds the Volcano protocol around it.
type TupleShuffleOp struct {
	// TupleBuffer carries the settable fields: Capacity, DoubleBuffer,
	// Clock, CopyCost and Obs.
	shuffle.TupleBuffer
	child blockOperator
	rng   *rand.Rand
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
func (op *TupleShuffleOp) Init() error { return op.restart(op.child.Init) }

// ReScan implements Operator: it resets the buffer I/O state and re-scans
// the child, exactly the ExecReScan chain of Section 6.2.
func (op *TupleShuffleOp) ReScan() error { return op.restart(op.child.ReScan) }

// restart resets the child, then settles whatever scan was in progress and
// starts the buffer over.
func (op *TupleShuffleOp) restart(resetChild func() error) error {
	if err := resetChild(); err != nil {
		return err
	}
	op.Reset(op.child, op.rng)
	return nil
}

// Next implements Operator.
func (op *TupleShuffleOp) Next() (*data.Tuple, bool, error) {
	// The per-tuple path: Pop inlines to a bounds check, a pointer and an
	// increment.
	if t, ok := op.Pop(); ok {
		return t, true, nil
	}
	t, ok := op.TupleBuffer.Next()
	return t, ok, op.Err()
}

// Close implements Operator. Closing a partially-consumed pipelined epoch
// settles the simulated clock to the pipeline's completion time, so callers
// that abandon a scan mid-epoch still observe consistent accounting.
func (op *TupleShuffleOp) Close() error {
	op.Settle()
	return op.child.Close()
}
