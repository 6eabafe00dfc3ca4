package shuffle

import (
	"math/rand"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/obs"
)

// CopyCost is the simulated CPU cost of copying one tuple into a shuffle
// buffer; it models the 11.7% overhead CorgiPile pays over No Shuffle.
const CopyCost = 60 * time.Nanosecond

// BlockSource is what a TupleBuffer fills from: a BlockCursor, or any
// executor operator that hands out its tuples a block at a time.
type BlockSource interface {
	// NextBlock returns the next run of tuples; the slice is only valid
	// until the following call. ok=false ends the scan.
	NextBlock() (block []data.Tuple, ok bool, err error)
}

// TupleBuffer is the tuple-level shuffle of Algorithm 1: it pulls Capacity
// tuples from its source, shuffles them and streams them out, then refills.
// A block that straddles the capacity is split and its tail opens the next
// fill, so the source is asked for a block — and the device read — only when
// the buffer still has room and nothing is held over.
//
// With DoubleBuffer set it models the Section 6.3 optimization: a write
// thread fills and shuffles one buffer while the read thread drains the
// other. Fill and consume times are measured serially on the shared clock
// and recombined through an iosim.Overlap.
//
// It implements Iterator; the executor's TupleShuffleOp embeds one.
type TupleBuffer struct {
	// Capacity is the buffer size in tuples.
	Capacity int
	// DoubleBuffer enables fill/consume overlap accounting.
	DoubleBuffer bool
	// Clock is the simulated clock (nil disables all time accounting).
	Clock *iosim.Clock
	// CopyCost is the CPU cost of copying one tuple into the buffer.
	CopyCost time.Duration
	// Obs, when non-nil, receives refill counts and durations, fill/consume
	// times and the buffer-occupancy gauges.
	Obs *obs.Registry

	src  BlockSource
	rng  *rand.Rand
	ov   iosim.Overlap
	buf  []data.Tuple
	pos  int
	rest []data.Tuple // tail of the straddling block; aliases the source's block
	done bool         // the source is exhausted
	err  error
}

// Reset settles whatever scan was in progress and starts a new one over src,
// shuffling with rng. The buffer's storage is kept for the new scan.
func (b *TupleBuffer) Reset(src BlockSource, rng *rand.Rand) {
	b.ov.Settle()
	b.src, b.rng = src, rng
	b.ov = iosim.NewOverlap(b.Clock, b.Obs, b.DoubleBuffer)
	b.buf, b.pos, b.rest, b.done, b.err = b.buf[:0], 0, nil, false, nil
}

// Settle closes the overlap accounting of a scan abandoned mid-way, leaving
// the clock at or past everything charged so far.
func (b *TupleBuffer) Settle() { b.ov.Settle() }

// Next implements Iterator.
func (b *TupleBuffer) Next() (*data.Tuple, bool) {
	for {
		if t, ok := b.Pop(); ok || !b.refill() {
			return t, ok
		}
	}
}

// Pop returns the next buffered tuple without refilling; ok=false when the
// buffer is drained.
func (b *TupleBuffer) Pop() (*data.Tuple, bool) {
	if b.pos >= len(b.buf) {
		return nil, false
	}
	t := &b.buf[b.pos]
	b.pos++
	return t, true
}

// Err implements Iterator.
func (b *TupleBuffer) Err() error { return b.err }

// BufferLen returns the number of tuples currently held in the buffer.
func (b *TupleBuffer) BufferLen() int { return len(b.buf) }

// fill appends the source's tuples to buf until it holds Capacity tuples or
// the source is exhausted.
func (b *TupleBuffer) fill(buf []data.Tuple) (_ []data.Tuple, exhausted bool, err error) {
	for len(buf) < b.Capacity {
		if len(b.rest) == 0 {
			block, ok, err := b.src.NextBlock()
			if err != nil {
				return buf, false, err
			}
			if !ok {
				return buf, true, nil
			}
			b.rest = block
		}
		n := min(len(b.rest), b.Capacity-len(buf))
		buf = append(buf, b.rest[:n]...)
		b.rest = b.rest[n:]
	}
	return buf, false, nil
}

// refill loads and shuffles the next buffer. It returns false when the scan
// is over: the source is exhausted (the overlap is finished) or failed (it is
// settled, and Err reports why).
func (b *TupleBuffer) refill() bool {
	if b.err != nil {
		return false
	}
	if b.done {
		b.ov.Finish()
		return false
	}
	b.ov.BeginFill()
	start := b.Obs.Now()
	buf, done, err := b.fill(b.buf[:0])
	if err != nil {
		b.Obs.Observe(obs.SpanRefill, b.Obs.Now()-start)
		b.err = err
		b.ov.Settle()
		return false
	}
	b.done = done
	if len(buf) == 0 {
		// The source ended on the previous buffer's last tuple: there was
		// no refill to count, only its time to account.
		b.ov.EndFill()
		b.ov.Finish()
		return false
	}
	if b.Clock != nil && b.CopyCost > 0 {
		b.Clock.Advance(time.Duration(len(buf)) * b.CopyCost)
	}
	b.rng.Shuffle(len(buf), func(i, j int) { buf[i], buf[j] = buf[j], buf[i] })
	b.Obs.Observe(obs.SpanRefill, b.Obs.Now()-start)
	b.Obs.Inc(obs.ShuffleRefills)
	b.buf, b.pos = buf, 0
	b.Obs.SetGauge(obs.ShuffleBufferTuples, float64(len(buf)))
	b.Obs.SetGauge(obs.ShuffleBufferOccupancy, float64(len(buf))/float64(b.Capacity))
	b.ov.EndFill()
	return true
}
