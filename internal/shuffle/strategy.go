package shuffle

import (
	"fmt"
	"math/rand"

	"corgipile/internal/data"
	"corgipile/internal/obs"
)

// Kind names a shuffling strategy.
type Kind string

// The strategies compared in the paper (Section 3 plus CorgiPile).
const (
	KindNoShuffle     Kind = "no_shuffle"
	KindShuffleOnce   Kind = "shuffle_once"
	KindEpochShuffle  Kind = "epoch_shuffle"
	KindSlidingWindow Kind = "sliding_window"
	KindMRS           Kind = "mrs"
	KindBlockOnly     Kind = "block_only"
	KindCorgiPile     Kind = "corgipile"
)

// DefaultBufferFraction is the paper's buffer size, a fraction of the dataset.
const DefaultBufferFraction = 0.1

// Options configures a strategy.
type Options struct {
	// BufferFraction is the in-memory buffer size as a fraction of the
	// dataset (default DefaultBufferFraction). It sizes CorgiPile's block
	// buffer, the sliding window, and the MRS reservoir alike, so the
	// strategies compete with equal memory.
	BufferFraction float64
	// Seed seeds the strategy's random choices.
	Seed int64
	// DoubleBuffer enables CorgiPile's double-buffering optimization
	// (Section 6.3), overlapping block I/O with SGD compute.
	DoubleBuffer bool
	// SampleOnly makes CorgiPile follow Algorithm 1 literally: each epoch
	// trains on ONE buffer of n blocks sampled without replacement (n·b
	// tuples) instead of streaming every block through the buffer. This is
	// the regime the convergence theorems analyze (one epoch = n·b
	// updates); the systems integrations use the full-stream variant.
	SampleOnly bool
	// Obs, when non-nil, receives refill counts and buffer fill/consume
	// times under the obs.Shuffle* metric names, making strategy I/O
	// behaviour visible in the cross-layer epoch breakdown.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.BufferFraction <= 0 {
		o.BufferFraction = DefaultBufferFraction
	}
	return o
}

// bufferTuples converts the buffer fraction into a tuple count, at least 1.
func (o Options) bufferTuples(total int) int {
	n := int(o.BufferFraction * float64(total))
	if n < 1 {
		n = 1
	}
	return n
}

// Iterator streams one epoch's tuples. After Next returns ok=false, Err
// reports whether the epoch ended normally or on a storage error.
type Iterator interface {
	Next() (t *data.Tuple, ok bool)
	Err() error
}

// Strategy produces per-epoch tuple streams over a Source.
type Strategy interface {
	// Name returns the strategy kind.
	Name() Kind
	// StartEpoch begins epoch s (0-based) and returns its tuple stream.
	StartEpoch(s int) (Iterator, error)
}

// New constructs the named strategy over src. Shuffle Once pays its full
// preprocessing cost inside New, so construction time is part of the
// end-to-end measurements exactly as in Figure 11.
func New(kind Kind, src Source, opts Options) (Strategy, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	switch kind {
	case KindNoShuffle:
		return &blockScan{kind: kind, src: src, reg: opts.Obs}, nil
	case KindBlockOnly:
		return &blockScan{kind: kind, src: src, rng: rng, reg: opts.Obs}, nil
	case KindShuffleOnce:
		fs, ok := src.(FullShuffler)
		if !ok {
			return nil, fmt.Errorf("shuffle: %s requires a FullShuffler source", kind)
		}
		shuf, err := fs.ShuffledCopy(rng)
		if err != nil {
			return nil, fmt.Errorf("shuffle: shuffle-once preprocessing: %w", err)
		}
		return &blockScan{kind: kind, src: shuf, reg: opts.Obs}, nil
	case KindEpochShuffle:
		fs, ok := src.(FullShuffler)
		if !ok {
			return nil, fmt.Errorf("shuffle: %s requires a FullShuffler source", kind)
		}
		return &epochShuffle{src: fs, rng: rng, reg: opts.Obs}, nil
	case KindSlidingWindow:
		return &slidingWindow{src: src, opts: opts, rng: rng}, nil
	case KindMRS:
		return &mrs{src: src, opts: opts, rng: rng}, nil
	case KindCorgiPile:
		return &corgiPile{src: src, opts: opts, rng: rng}, nil
	}
	return nil, fmt.Errorf("shuffle: unknown strategy %q", kind)
}
