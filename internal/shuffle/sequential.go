package shuffle

import (
	"math/rand"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/obs"
)

// blockIter streams a BlockCursor's tuples with the operating system's
// readahead modelled on top: each block read is a fill that overlaps the
// consumption of the previous block (an iosim.Overlap at block
// granularity), exactly the overlap real sequential scans enjoy and the
// baseline CorgiPile's double-buffering must be measured against. It is the
// shared engine behind No Shuffle (storage order), Block-Only Shuffle
// (random order), Shuffle Once (storage order over a shuffled copy), and the
// scans under Sliding-Window and MRS.
type blockIter struct {
	cur BlockCursor
	ov  iosim.Overlap
	err error
}

// newBlockIter starts a pass over src: in storage order when rng is nil,
// else in a fresh random block order.
func newBlockIter(src Source, rng *rand.Rand, reg *obs.Registry) *blockIter {
	it := &blockIter{cur: BlockCursor{Obs: reg, src: src}, ov: iosim.NewOverlap(src.Clock(), reg, true)}
	it.cur.Reset(rng)
	return it
}

// Next implements Iterator.
func (it *blockIter) Next() (*data.Tuple, bool) {
	c := &it.cur
	for c.pos >= len(c.buf) {
		if it.err != nil {
			return nil, false
		}
		if c.next >= len(c.order) {
			it.ov.Finish()
			return nil, false
		}
		it.ov.BeginFill()
		if _, it.err = c.advance(); it.err != nil {
			it.ov.Settle()
			return nil, false
		}
		c.Obs.Inc(obs.ShuffleRefills)
		it.ov.EndFill()
	}
	t := &c.buf[c.pos]
	c.pos++
	return t, true
}

// Err implements Iterator.
func (it *blockIter) Err() error { return it.err }

// blockScan streams whole blocks through a blockIter. Without rng it scans
// in storage order — No Shuffle, the fastest and statistically weakest
// strategy, and Shuffle Once, the same scan over a pre-shuffled copy. With
// rng the block order is reshuffled each epoch while tuples within a block
// keep their storage order: Block-Only, the CorgiPile ablation of Section
// 7.3.2 that shows why the tuple-level shuffle matters.
type blockScan struct {
	kind Kind
	src  Source
	rng  *rand.Rand
	reg  *obs.Registry
}

// Name implements Strategy.
func (s *blockScan) Name() Kind { return s.kind }

// StartEpoch implements Strategy.
func (s *blockScan) StartEpoch(int) (Iterator, error) {
	return newBlockIter(s.src, s.rng, s.reg), nil
}

// epochShuffle performs a full shuffle before every epoch: it scans all
// blocks (sequential read), charges the external-sort materialization, and
// streams the tuples in uniformly random order.
type epochShuffle struct {
	src FullShuffler
	rng *rand.Rand
	reg *obs.Registry
}

// Name implements Strategy.
func (*epochShuffle) Name() Kind { return KindEpochShuffle }

// StartEpoch implements Strategy.
func (s *epochShuffle) StartEpoch(int) (Iterator, error) {
	fill := iosim.NewOverlap(s.src.Clock(), s.reg, false) // reports the fill time
	fill.BeginFill()
	all := make([]data.Tuple, 0, s.src.NumTuples())
	for b := 0; b < s.src.NumBlocks(); b++ {
		ts, err := s.src.ReadBlock(b)
		if err != nil {
			return nil, err
		}
		all = append(all, ts...)
	}
	s.src.ChargeFullShuffle()
	s.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	s.reg.Inc(obs.ShuffleRefills)
	s.reg.Add(obs.ShuffleBlocks, int64(s.src.NumBlocks()))
	fill.EndFill()
	return &sliceIter{tuples: all}, nil
}

// sliceIter streams an in-memory tuple slice.
type sliceIter struct {
	tuples []data.Tuple
	pos    int
}

// Next implements Iterator.
func (it *sliceIter) Next() (*data.Tuple, bool) {
	if it.pos >= len(it.tuples) {
		return nil, false
	}
	t := &it.tuples[it.pos]
	it.pos++
	return t, true
}

// Err implements Iterator.
func (it *sliceIter) Err() error { return nil }
