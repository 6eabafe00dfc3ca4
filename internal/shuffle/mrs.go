package shuffle

import (
	"math/rand"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
)

// mrsLoopEvery is the MRS loop "thread"'s cadence: one buffered tuple is
// injected per mrsLoopEvery scanned tuples.
const mrsLoopEvery = 2

// mrs implements Bismarck's Multiplexed Reservoir Sampling shuffle
// (Section 3.4). One thread scans the data sequentially, maintaining a
// reservoir sample in buffer B1; tuples *dropped* by the reservoir feed
// SGD. A second thread concurrently loops over the previously sampled
// tuples in buffer B2, multiplexing them into the same model.
//
// This implementation emulates the two threads deterministically: every
// mrsLoopEvery scan-emissions, one tuple from the loop buffer is
// interleaved into the stream. At the end of the scan, B2 is refilled from
// B1 for the next epoch, and the reservoir itself is drained (so every
// epoch still emits at least the full pass worth of tuples).
type mrs struct {
	src  Source
	opts Options
	rng  *rand.Rand
	b2   []data.Tuple // loop buffer carried across epochs
}

// Name implements Strategy.
func (*mrs) Name() Kind { return KindMRS }

// StartEpoch implements Strategy.
func (s *mrs) StartEpoch(int) (Iterator, error) {
	half := s.opts.bufferTuples(s.src.NumTuples()) / 2
	if half < 1 {
		half = 1
	}
	return &mrsIter{
		owner:     s,
		scan:      newBlockIter(s.src, nil, s.opts.Obs),
		reservoir: make([]data.Tuple, 0, half),
		loopBuf:   s.b2,
		rng:       s.rng,
		clock:     s.src.Clock(),
	}, nil
}

type mrsIter struct {
	owner     *mrs
	scan      *blockIter
	reservoir []data.Tuple
	loopBuf   []data.Tuple
	loopPos   int
	sinceLoop int
	seen      int // tuples scanned so far (reservoir index)
	rng       *rand.Rand
	clock     *iosim.Clock
	draining  bool
	out       data.Tuple
}

// Next implements Iterator.
func (it *mrsIter) Next() (*data.Tuple, bool) {
	for {
		if it.draining {
			n := len(it.reservoir)
			if n == 0 {
				return nil, false
			}
			k := it.rng.Intn(n)
			it.out = it.reservoir[k]
			it.reservoir[k] = it.reservoir[n-1]
			it.reservoir = it.reservoir[:n-1]
			return &it.out, true
		}

		// Multiplex: interleave a loop-buffer tuple every mrsLoopEvery
		// emissions, modelling the second thread.
		if len(it.loopBuf) > 0 && it.sinceLoop >= mrsLoopEvery {
			it.sinceLoop = 0
			it.out = it.loopBuf[it.loopPos%len(it.loopBuf)]
			it.loopPos++
			return &it.out, true
		}

		t, ok := it.scan.Next()
		if !ok {
			// Scan done: hand the reservoir to the next epoch's loop buffer
			// and drain it for this epoch.
			it.owner.b2 = append(it.owner.b2[:0], it.reservoir...)
			it.draining = true
			continue
		}
		it.seen++
		it.sinceLoop++

		if len(it.reservoir) < cap(it.reservoir) {
			// Reservoir filling: the tuple is sampled, not dropped; copy it
			// and keep scanning.
			it.chargeCopy()
			it.reservoir = append(it.reservoir, *t)
			continue
		}
		// Standard reservoir sampling over the scan so far.
		if j := it.rng.Intn(it.seen); j < cap(it.reservoir) {
			// Selected: it replaces a reservoir slot; the evicted tuple is
			// dropped to SGD.
			it.chargeCopy()
			it.out = it.reservoir[j]
			it.reservoir[j] = *t
			return &it.out, true
		}
		// Not selected: the scanned tuple itself is dropped to SGD.
		it.out = *t
		return &it.out, true
	}
}

// Err implements Iterator.
func (it *mrsIter) Err() error { return it.scan.Err() }

func (it *mrsIter) chargeCopy() {
	if it.clock != nil {
		it.clock.Advance(CopyCost)
	}
}
