// Package executor implements the Volcano-style physical operators the
// paper adds to PostgreSQL (Section 6): BlockShuffle, TupleShuffle (with
// the double-buffering optimization), and SGD, plus the Filter behind a
// TRAIN's WHERE. Operators follow PostgreSQL's pull model — Init/Next/
// ReScan/Close — and the SGD operator drives multi-epoch training through
// the re-scan mechanism exactly as the paper describes. PREDICT is not a
// pipeline: package db answers it from the table's decoded image.
package executor

import (
	"corgipile/internal/data"
	"corgipile/internal/shuffle"
)

// Operator is a pull-based physical operator producing tuples.
type Operator interface {
	// Init prepares operator state (buffers, shuffled block ids).
	Init() error
	// Next returns the next tuple; ok=false ends the current scan.
	Next() (t *data.Tuple, ok bool, err error)
	// ReScan resets the operator to produce a fresh scan — for shuffle
	// operators, with fresh randomness. It mirrors PostgreSQL's
	// ExecReScan, which the SGD operator invokes between epochs.
	ReScan() error
	// Close releases operator resources.
	Close() error
}

// blockOperator is an Operator that can also hand out its tuples a storage
// block at a time. The access-path leaf BlockShuffleOp implements it, and
// TupleShuffleOp fills its buffer through it: one interface call and one
// append per block instead of one Next per tuple.
type blockOperator interface {
	Operator
	shuffle.BlockSource
}

// asBlocks returns op itself when it is block-granular and otherwise an
// adapter presenting each of its tuples as a block of one, so TupleShuffleOp
// has a single fill loop whatever it is stacked on.
func asBlocks(op Operator) blockOperator {
	if b, ok := op.(blockOperator); ok {
		return b
	}
	return &tupleBlocks{Operator: op}
}

// tupleBlocks presents a tuple-at-a-time operator as a blockOperator.
type tupleBlocks struct {
	Operator
	one [1]data.Tuple
}

// NextBlock implements blockOperator.
func (b *tupleBlocks) NextBlock() ([]data.Tuple, bool, error) {
	t, ok, err := b.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	b.one[0] = *t
	return b.one[:], true, nil
}
