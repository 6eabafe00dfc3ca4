package shuffle

import (
	"math/rand"

	"corgipile/internal/data"
	"corgipile/internal/obs"
)

// BlockCursor walks a Source's blocks in one pass's visit order, holding the
// decoded block it is positioned in and handing it out a tuple or a block at
// a time. It is the block reader under every access path: the executor's
// Scan and BlockShuffle operators are shells around one, blockIter adds
// read-ahead accounting to one, and CorgiPile's TupleBuffer fills from one.
type BlockCursor struct {
	// Obs, when non-nil, counts blocks read under obs.ShuffleBlocks.
	Obs *obs.Registry

	src   Source
	order []int // block ids in visit order
	next  int   // next position in order
	buf   []data.Tuple
	pos   int
}

// NewBlockCursor returns a cursor over src. Reset starts a pass.
func NewBlockCursor(src Source) BlockCursor { return BlockCursor{src: src} }

// Reset starts a new pass: in storage order when rng is nil, otherwise in a
// fresh random permutation of the blocks — the block-level shuffle of
// Algorithm 1.
func (c *BlockCursor) Reset(rng *rand.Rand) {
	n := c.src.NumBlocks()
	if rng != nil {
		c.order = rng.Perm(n)
	} else {
		c.order = make([]int, n)
		for i := range c.order {
			c.order[i] = i
		}
	}
	c.next, c.buf, c.pos = 0, nil, 0
}

// Narrow returns a cursor at the start of a pass over positions [lo, hi) of
// c's visit order, reading its blocks through src — a source with the block
// layout of c's own. It is the one way to visit a sub-range of a permutation:
// SampleOnly's n sampled blocks, or one dist worker's share of the epoch's
// order behind that worker's clock.
func (c *BlockCursor) Narrow(src Source, lo, hi int) BlockCursor {
	return BlockCursor{Obs: c.Obs, src: src, order: c.order[lo:hi]}
}

// advance makes the next block of the visit order the current one; ok=false
// when the pass has none left.
func (c *BlockCursor) advance() (ok bool, err error) {
	if c.next >= len(c.order) {
		return false, nil
	}
	buf, err := c.src.ReadBlock(c.order[c.next])
	if err != nil {
		return false, err
	}
	c.next++
	c.Obs.Inc(obs.ShuffleBlocks)
	c.buf, c.pos = buf, 0
	return true, nil
}

// Next returns the next tuple of the pass; ok=false ends it.
func (c *BlockCursor) Next() (*data.Tuple, bool, error) {
	for c.pos >= len(c.buf) {
		if ok, err := c.advance(); !ok {
			return nil, false, err
		}
	}
	t := &c.buf[c.pos]
	c.pos++
	return t, true, nil
}

// NextBlock returns the tuples of the current block that Next has not yet
// returned or, when there are none, reads the next block. The slice is only
// valid until the following call on the cursor; ok=false ends the pass.
func (c *BlockCursor) NextBlock() ([]data.Tuple, bool, error) {
	if c.pos >= len(c.buf) {
		if ok, err := c.advance(); !ok {
			return nil, false, err
		}
	}
	rest := c.buf[c.pos:]
	c.pos = len(c.buf)
	return rest, true, nil
}
