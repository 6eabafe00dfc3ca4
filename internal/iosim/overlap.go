package iosim

import (
	"time"

	"corgipile/internal/obs"
)

// Overlap accounts one consumer draining buffers that a producer fills for
// it, on a shared simulated clock. The caller runs both sides serially —
// BeginFill, the fill's work, EndFill, then the consumer's work until the
// next BeginFill — and Overlap reports the two sides' times under
// obs.ShuffleFillNanos and obs.ShuffleConsumeNanos. When the producer runs
// ahead (TupleShuffle's double buffering, a sequential scan's read-ahead) it
// also replays the intervals through a two-deep Pipeline and sets the clock
// to the overlapped instant. It is the only code outside Clock itself that
// moves a clock, and the only code that moves one backwards.
//
// The zero value, like any Overlap without a clock, does nothing.
type Overlap struct {
	clock *Clock
	reg   *obs.Registry
	pipe  *Pipeline // nil: fills and consumption are serial

	fillStart time.Duration
	consStart time.Duration
	consuming bool // a consume interval is open on pipe
}

// NewOverlap starts accounting at the clock's current time. ahead says
// whether fills overlap the consumption of the previous buffer; without it
// only the fill time is reported and the clock is left alone.
func NewOverlap(clock *Clock, reg *obs.Registry, ahead bool) Overlap {
	o := Overlap{clock: clock, reg: reg}
	if clock != nil && ahead {
		o.pipe = NewPipeline(2, clock.Now())
	}
	return o
}

// BeginFill marks the start of a fill, closing the consume interval of the
// buffer drained so far.
func (o *Overlap) BeginFill() {
	if o.clock == nil {
		return
	}
	o.closeConsume()
	o.fillStart = o.clock.Now()
}

// EndFill marks the end of the fill begun by BeginFill and moves the clock
// to the instant the consumer may start draining it.
func (o *Overlap) EndFill() {
	if o.clock == nil {
		return
	}
	cost := o.clock.Now() - o.fillStart
	o.reg.AddDuration(obs.ShuffleFillNanos, cost)
	if o.pipe != nil {
		o.consStart = o.pipe.Fill(cost)
		o.clock.Set(o.consStart)
		o.consuming = true
	}
}

// Finish ends a scan that drained its last buffer: the clock moves to the
// overlapped completion time, which may be earlier than the serial time it
// shows.
func (o *Overlap) Finish() {
	if !o.consuming {
		return
	}
	o.closeConsume()
	o.clock.Set(o.pipe.End())
}

// Settle ends a scan that stops anywhere else — a failed fill, an early
// Close, a mid-epoch ReScan. Unlike Finish it never rewinds the clock: an
// aborted fill has charged serial time the pipeline never saw.
func (o *Overlap) Settle() {
	if o.pipe == nil {
		return
	}
	o.closeConsume()
	if end := o.pipe.End(); end > o.clock.Now() {
		o.clock.Set(end)
	}
}

func (o *Overlap) closeConsume() {
	if !o.consuming {
		return
	}
	d := o.clock.Now() - o.consStart
	o.pipe.Consume(d)
	o.reg.AddDuration(obs.ShuffleConsumeNanos, d)
	o.consuming = false
}
