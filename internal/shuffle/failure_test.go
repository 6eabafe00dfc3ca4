package shuffle

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
)

// flakySource wraps a Source and fails ReadBlock on a chosen block id —
// the failure-injection harness for the strategies' error paths.
type flakySource struct {
	Source
	failBlock int
	err       error
}

var errInjected = errors.New("injected block-read failure")

func newFlaky(src Source, failBlock int) *flakySource {
	return &flakySource{Source: src, failBlock: failBlock, err: errInjected}
}

func (f *flakySource) ReadBlock(i int) ([]data.Tuple, error) {
	if i == f.failBlock {
		return nil, f.err
	}
	return f.Source.ReadBlock(i)
}

// ShuffledCopy and ChargeFullShuffle make flakySource a FullShuffler so
// that Epoch Shuffle's error path is reachable.
func (f *flakySource) ShuffledCopy(*rand.Rand) (Source, error) { return nil, f.err }
func (f *flakySource) ChargeFullShuffle()                      {}

func TestStrategiesSurfaceReadErrors(t *testing.T) {
	// Every strategy must stop and report an injected block-read failure
	// via Err(), never panic or silently truncate without error.
	kinds := []Kind{KindNoShuffle, KindBlockOnly, KindSlidingWindow, KindMRS, KindCorgiPile}
	for _, kind := range kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			src := newFlaky(clusteredSource(200, 20), 5)
			st, err := New(kind, src, Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			it, err := st.StartEpoch(0)
			if err != nil {
				t.Fatal(err)
			}
			count := 0
			for {
				_, ok := it.Next()
				if !ok {
					break
				}
				count++
			}
			if !errors.Is(it.Err(), errInjected) {
				t.Fatalf("Err() = %v, want injected error (emitted %d tuples)", it.Err(), count)
			}
			if count >= 200 {
				t.Fatal("iterator claimed full coverage despite failure")
			}
		})
	}
}

func TestEpochShuffleSurfacesReadErrorAtStart(t *testing.T) {
	src := newFlaky(clusteredSource(200, 20), 5)
	st, err := New(KindEpochShuffle, src, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.StartEpoch(0); !errors.Is(err, errInjected) {
		t.Fatalf("StartEpoch error = %v, want injected", err)
	}
}

func TestFailureDoesNotCorruptClock(t *testing.T) {
	// A failing epoch must leave the simulated clock at a sane (non-zero,
	// finite) time: pipelined iterators must close their overlap windows.
	clock := iosim.NewClock()
	base := clusteredSource(200, 20).WithClock(clock, 1e6) // 1ms per block
	src := newFlaky(base, 5)
	st, _ := New(KindCorgiPile, src, Options{Seed: 4, DoubleBuffer: true})
	it, _ := st.StartEpoch(0)
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if it.Err() == nil {
		t.Fatal("expected error")
	}
	if clock.Now() <= 0 {
		t.Fatalf("clock = %v after failure", clock.Now())
	}
}

// Property: for random block sizes and buffer fractions, CorgiPile's epoch
// is always an exact permutation of the dataset.
func TestCorgiPilePermutationProperty(t *testing.T) {
	f := func(perBlockRaw, bufRaw uint8, seed int64) bool {
		perBlock := int(perBlockRaw)%50 + 1
		bufferFrac := (float64(bufRaw)/255)*0.5 + 0.004
		const n = 300
		src := clusteredSource(n, perBlock)
		st, err := New(KindCorgiPile, src, Options{Seed: seed, BufferFraction: bufferFrac})
		if err != nil {
			return false
		}
		it, err := st.StartEpoch(0)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		count := 0
		for {
			tp, ok := it.Next()
			if !ok {
				break
			}
			if tp.ID < 0 || tp.ID >= n || seen[tp.ID] {
				return false
			}
			seen[tp.ID] = true
			count++
		}
		return count == n && it.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: sliding-window emits a permutation for any window fraction.
func TestSlidingWindowPermutationProperty(t *testing.T) {
	f := func(bufRaw uint8, seed int64) bool {
		bufferFrac := (float64(bufRaw)/255)*0.9 + 0.004
		const n = 250
		src := clusteredSource(n, 10)
		st, err := New(KindSlidingWindow, src, Options{Seed: seed, BufferFraction: bufferFrac})
		if err != nil {
			return false
		}
		it, _ := st.StartEpoch(0)
		seen := make([]bool, n)
		count := 0
		for {
			tp, ok := it.Next()
			if !ok {
				break
			}
			if seen[tp.ID] {
				return false
			}
			seen[tp.ID] = true
			count++
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: MRS covers every tuple at least once each epoch for any buffer
// fraction.
func TestMRSCoverageProperty(t *testing.T) {
	f := func(bufRaw uint8, seed int64) bool {
		bufferFrac := (float64(bufRaw)/255)*0.4 + 0.01
		const n = 200
		src := clusteredSource(n, 10)
		st, err := New(KindMRS, src, Options{Seed: seed, BufferFraction: bufferFrac})
		if err != nil {
			return false
		}
		for epoch := 0; epoch < 2; epoch++ {
			it, err := st.StartEpoch(epoch)
			if err != nil {
				return false
			}
			seen := make(map[int64]bool)
			for {
				tp, ok := it.Next()
				if !ok {
					break
				}
				seen[tp.ID] = true
			}
			if len(seen) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
