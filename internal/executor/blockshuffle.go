package executor

import (
	"math/rand"

	"corgipile/internal/shuffle"
)

// BlockShuffleOp reads blocks in a random order, reshuffled on every
// ReScan — the paper's first new physical operator. Tuples within a block
// stay in storage order; pairing it with TupleShuffleOp yields CorgiPile.
type BlockShuffleOp struct {
	shuffle.BlockCursor
	rng *rand.Rand
}

// NewBlockShuffle returns a block-shuffling scan over src seeded by rng.
func NewBlockShuffle(src shuffle.Source, rng *rand.Rand) *BlockShuffleOp {
	return &BlockShuffleOp{shuffle.NewBlockCursor(src), rng}
}

// Init implements Operator.
func (op *BlockShuffleOp) Init() error { return op.ReScan() }

// ReScan implements Operator: it reshuffles the block ids, the per-epoch
// block-level shuffle of Algorithm 1.
func (op *BlockShuffleOp) ReScan() error {
	op.Reset(op.rng)
	return nil
}

// Close implements Operator.
func (op *BlockShuffleOp) Close() error { return nil }
