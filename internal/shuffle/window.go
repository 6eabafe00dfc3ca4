package shuffle

import (
	"math/rand"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
)

// slidingWindow implements TensorFlow's sliding-window shuffle
// (Section 3.3): a window of buffered tuples from which one uniformly
// random element is emitted and replaced by the next scanned tuple. Early
// tuples remain overwhelmingly likely to be emitted before late ones, which
// is exactly the pathology Figure 3(b) shows.
type slidingWindow struct {
	src  Source
	opts Options
	rng  *rand.Rand
}

// Name implements Strategy.
func (*slidingWindow) Name() Kind { return KindSlidingWindow }

// StartEpoch implements Strategy.
func (s *slidingWindow) StartEpoch(int) (Iterator, error) {
	return &windowIter{
		scan:   newBlockIter(s.src, nil, s.opts.Obs),
		window: make([]data.Tuple, 0, s.opts.bufferTuples(s.src.NumTuples())),
		rng:    s.rng,
		clock:  s.src.Clock(),
	}, nil
}

type windowIter struct {
	scan    *blockIter
	window  []data.Tuple
	rng     *rand.Rand
	clock   *iosim.Clock
	drained bool
	out     data.Tuple
}

// Next implements Iterator.
func (it *windowIter) Next() (*data.Tuple, bool) {
	for {
		if it.drained {
			// Drain phase: emit the window's remaining tuples in random
			// order by swap-removal.
			n := len(it.window)
			if n == 0 {
				return nil, false
			}
			k := it.rng.Intn(n)
			it.out = it.window[k]
			it.window[k] = it.window[n-1]
			it.window = it.window[:n-1]
			return &it.out, true
		}
		t, ok := it.scan.Next()
		if !ok {
			it.drained = true
			continue
		}
		it.chargeCopy()
		if len(it.window) < cap(it.window) {
			it.window = append(it.window, *t)
			continue
		}
		k := it.rng.Intn(len(it.window))
		it.out = it.window[k]
		it.window[k] = *t
		return &it.out, true
	}
}

// Err implements Iterator.
func (it *windowIter) Err() error { return it.scan.Err() }

func (it *windowIter) chargeCopy() {
	if it.clock != nil {
		it.clock.Advance(CopyCost)
	}
}
