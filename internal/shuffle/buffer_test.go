package shuffle

import (
	"math/rand"
	"testing"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/obs"
)

// timedSource is a MemSource whose block reads cost fixed simulated time.
type timedSource struct {
	*MemSource
	clock *iosim.Clock
	cost  time.Duration
}

func (s timedSource) Clock() *iosim.Clock { return s.clock }
func (s timedSource) ReadBlock(i int) ([]data.Tuple, error) {
	s.clock.Advance(s.cost)
	return s.MemSource.ReadBlock(i)
}

// One epoch of BlockCursor → TupleBuffer over 100 tuples in ten blocks of
// ten, for capacities that divide the block, split it, hold one tuple, and
// exceed the table: every tuple comes out exactly once, the registry counts
// ⌈tuples / capacity⌉ refills and ten blocks, and with DoubleBuffer the epoch
// ends at the instant the two-deep pipeline recurrence gives for the fills'
// and drains' serial costs.
func TestTupleBufferCoversCountsAndOverlaps(t *testing.T) {
	const (
		tuples, perBlock = 100, 10
		readCost         = time.Millisecond
		consumeCost      = 150 * time.Microsecond // per tuple; 1.5ms per block, so neither side always waits
	)
	for _, capacity := range []int{1, 5, 7, 10, 13, 20, 50, 100, 101, 250} {
		for _, double := range []bool{false, true} {
			clock := iosim.NewClock()
			reg := obs.New().WithClock(clock)
			cur := &BlockCursor{Obs: reg, src: timedSource{clusteredSource(tuples, perBlock), clock, readCost}}
			rng := rand.New(rand.NewSource(3))
			cur.Reset(rng)
			buf := &TupleBuffer{Capacity: capacity, DoubleBuffer: double, Clock: clock, CopyCost: CopyCost, Obs: reg}
			buf.Reset(cur, rng)

			seen := make(map[int64]bool, tuples)
			for {
				tp, ok := buf.Next()
				if !ok {
					break
				}
				if seen[tp.ID] {
					t.Fatalf("cap %d: tuple %d emitted twice", capacity, tp.ID)
				}
				seen[tp.ID] = true
				clock.Advance(consumeCost)
			}
			if err := buf.Err(); err != nil || len(seen) != tuples {
				t.Fatalf("cap %d: covered %d of %d tuples, err %v", capacity, len(seen), tuples, err)
			}
			refills := (tuples + capacity - 1) / capacity
			if got := reg.Counter(obs.ShuffleRefills); got != int64(refills) {
				t.Fatalf("cap %d: %d refills, want %d", capacity, got, refills)
			}
			if got := reg.Counter(obs.ShuffleBlocks); got != tuples/perBlock {
				t.Fatalf("cap %d: %d blocks read, want %d", capacity, got, tuples/perBlock)
			}

			// Fill i ends having pulled min((i+1)·cap, tuples) tuples, read
			// from as many whole blocks as that takes.
			var serial, fillEnd, consEnd, prevConsEnd time.Duration
			pulled, blocksRead := 0, 0
			for i := 0; i < refills; i++ {
				n := min(capacity, tuples-pulled)
				pulled += n
				blocks := (pulled+perBlock-1)/perBlock - blocksRead
				blocksRead += blocks
				fill := time.Duration(blocks)*readCost + time.Duration(n)*CopyCost
				drain := time.Duration(n) * consumeCost
				serial += fill + drain
				fillEnd = max(fillEnd, prevConsEnd) + fill
				prevConsEnd = consEnd
				consEnd = max(fillEnd, consEnd) + drain
			}
			want := serial
			if double {
				want = consEnd
			}
			if clock.Now() != want {
				t.Fatalf("cap %d double=%v: epoch ended at %v, want %v (serial %v)", capacity, double, clock.Now(), want, serial)
			}
			if double && refills > 2 && want >= serial {
				t.Fatalf("cap %d: the recurrence hides nothing (%v of %v serial)", capacity, want, serial)
			}
		}
	}
}
