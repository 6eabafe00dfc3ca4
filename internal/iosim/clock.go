// Package iosim provides a deterministic simulation of block-addressable
// secondary storage (HDD, SSD) and of virtual time.
//
// The CorgiPile paper's performance results depend on the relative cost of
// random versus sequential access as a function of block size, not on any
// particular piece of hardware. This package reproduces that trade-off with
// a latency/bandwidth device model driven by a virtual clock, so that every
// benchmark in this repository is reproducible bit-for-bit on any host.
package iosim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a virtual clock measuring simulated elapsed time.
//
// Components that model work (device transfers, gradient computation, buffer
// copies) advance the clock by the simulated duration of that work. The zero
// value is a clock at time zero, ready to use.
//
// The clock is one atomic counter: every method is safe for concurrent use
// and none blocks. Jobs sharing a device share its clock, so a concurrent
// Set still moves time under every other reader — atomicity makes each
// access well defined, it does not give a job its own view.
type Clock struct {
	now atomic.Int64 // nanoseconds since the start of the simulation
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Now reports the current simulated time as a duration since the start of
// the simulation.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Advance moves the clock forward by d. Negative durations are ignored.
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.now.Add(int64(d))
}

// Set moves the clock to t. Its one caller is Overlap, which retroactively
// overlaps I/O time with compute time for pipelined components (the
// double-buffered tuple buffer, a scan's read-ahead): both are measured
// serially and the clock is then set to the pipelined completion time. Set
// never moves the clock backwards past zero; it may move it backwards
// relative to Now, which is exactly the point of overlap accounting.
func (c *Clock) Set(t time.Duration) {
	if t < 0 {
		t = 0
	}
	c.now.Store(int64(t))
}

// Reset returns the clock to time zero.
func (c *Clock) Reset() { c.Set(0) }

// Seconds reports the current simulated time in seconds.
func (c *Clock) Seconds() float64 { return c.Now().Seconds() }

// String implements fmt.Stringer.
func (c *Clock) String() string {
	return fmt.Sprintf("t=%.3fs", c.Seconds())
}
