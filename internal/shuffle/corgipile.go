package shuffle

import "math/rand"

// corgiPile implements the paper's two-level hierarchical shuffle
// (Algorithm 1, operationalized as in the PostgreSQL/PyTorch
// integrations): each epoch the block order is shuffled (block-level
// shuffle over all N blocks, a BlockCursor), then blocks are pulled into an
// in-memory buffer of BufferFraction of the tuples whose contents are
// shuffled before being emitted (tuple-level shuffle, a TupleBuffer). Every
// tuple is visited exactly once per epoch. The executor's BlockShuffle →
// TupleShuffle plan is the same two types inside Volcano operators.
type corgiPile struct {
	src  Source
	opts Options
	rng  *rand.Rand
}

// Name implements Strategy.
func (*corgiPile) Name() Kind { return KindCorgiPile }

// StartEpoch implements Strategy.
func (s *corgiPile) StartEpoch(int) (Iterator, error) {
	capacity := s.opts.bufferTuples(s.src.NumTuples())
	cur := &BlockCursor{Obs: s.opts.Obs, src: s.src}
	cur.Reset(s.rng)
	if s.opts.SampleOnly {
		// Algorithm 1 literally: one buffer of n sampled blocks per epoch,
		// n being the tuple budget in whole blocks.
		perBlock := max(1, (s.src.NumTuples()+len(cur.order)-1)/max(1, len(cur.order)))
		if n := max(1, capacity/perBlock); n < len(cur.order) {
			*cur = cur.Narrow(s.src, 0, n)
		}
	}
	buf := &TupleBuffer{
		Capacity:     capacity,
		DoubleBuffer: s.opts.DoubleBuffer,
		Clock:        s.src.Clock(),
		CopyCost:     CopyCost,
		Obs:          s.opts.Obs,
	}
	buf.Reset(cur, s.rng)
	return buf, nil
}
