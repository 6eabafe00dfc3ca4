package executor

import (
	"math/rand"

	"corgipile/internal/data"
	"corgipile/internal/obs"
	"corgipile/internal/shuffle"
)

// blockCursor is what ScanOp and BlockShuffleOp share: the decoded block the
// operator is positioned in, handed out a tuple or a block at a time. The
// embedding operator supplies read, which makes the next block of its order
// current (ok=false when there is none).
type blockCursor struct {
	read func() (ok bool, err error)
	buf  []data.Tuple
	pos  int
}

// Next implements Operator.
func (c *blockCursor) Next() (*data.Tuple, bool, error) {
	for c.pos >= len(c.buf) {
		if ok, err := c.read(); err != nil || !ok {
			return nil, false, err
		}
	}
	t := &c.buf[c.pos]
	c.pos++
	return t, true, nil
}

// NextBlock implements blockOperator.
func (c *blockCursor) NextBlock() ([]data.Tuple, bool, error) {
	if c.pos >= len(c.buf) {
		if ok, err := c.read(); err != nil || !ok {
			return nil, false, err
		}
	}
	rest := c.buf[c.pos:]
	c.pos = len(c.buf)
	return rest, true, nil
}

// ScanOp reads blocks sequentially in storage order — PostgreSQL's heap
// scan, and the access path of the No Shuffle strategy.
type ScanOp struct {
	blockCursor
	src   shuffle.Source
	block int
	// Obs, when non-nil, counts blocks read under obs.ShuffleBlocks.
	Obs *obs.Registry
}

// NewScan returns a sequential scan over src.
func NewScan(src shuffle.Source) *ScanOp {
	op := &ScanOp{src: src}
	op.read = op.readBlock
	return op
}

// Init implements Operator.
func (op *ScanOp) Init() error { return op.ReScan() }

// readBlock makes the next block in storage order the current one.
func (op *ScanOp) readBlock() (bool, error) {
	if op.block >= op.src.NumBlocks() {
		return false, nil
	}
	buf, err := op.src.ReadBlock(op.block)
	if err != nil {
		return false, err
	}
	op.block++
	op.Obs.Inc(obs.ShuffleBlocks)
	op.buf, op.pos = buf, 0
	return true, nil
}

// ReScan implements Operator.
func (op *ScanOp) ReScan() error {
	op.block, op.buf, op.pos = 0, nil, 0
	return nil
}

// Close implements Operator.
func (op *ScanOp) Close() error { return nil }

// BlockShuffleOp reads blocks in a random order, reshuffled on every
// ReScan — the paper's first new physical operator. Tuples within a block
// stay in storage order; pairing it with TupleShuffleOp yields CorgiPile.
type BlockShuffleOp struct {
	blockCursor
	src   shuffle.Source
	rng   *rand.Rand
	order []int
	next  int
	// Obs, when non-nil, counts blocks read under obs.ShuffleBlocks.
	Obs *obs.Registry
}

// NewBlockShuffle returns a block-shuffling scan over src seeded by rng.
func NewBlockShuffle(src shuffle.Source, rng *rand.Rand) *BlockShuffleOp {
	op := &BlockShuffleOp{src: src, rng: rng}
	op.read = op.readBlock
	return op
}

// Init implements Operator.
func (op *BlockShuffleOp) Init() error { return op.ReScan() }

// readBlock makes the next block of the epoch's order the current one.
func (op *BlockShuffleOp) readBlock() (bool, error) {
	if op.next >= len(op.order) {
		return false, nil
	}
	buf, err := op.src.ReadBlock(op.order[op.next])
	if err != nil {
		return false, err
	}
	op.next++
	op.Obs.Inc(obs.ShuffleBlocks)
	op.buf, op.pos = buf, 0
	return true, nil
}

// ReScan implements Operator: it reshuffles the block ids, the per-epoch
// block-level shuffle of Algorithm 1.
func (op *BlockShuffleOp) ReScan() error {
	op.order = op.rng.Perm(op.src.NumBlocks())
	op.next, op.buf, op.pos = 0, nil, 0
	return nil
}

// Close implements Operator.
func (op *BlockShuffleOp) Close() error { return nil }
