package iosim

import "time"

// Pipeline models a two-stage producer/consumer pipeline with a bounded
// number of in-flight buffers — the double-buffering optimization of the
// paper's TupleShuffle operator (Section 6.3).
//
// The producer (I/O thread) fills buffers; the consumer (SGD thread) drains
// them. With Depth buffers the producer may run at most Depth-1 buffers
// ahead of the consumer. Stage durations are measured serially on the shared
// clock by the caller; Pipeline computes the overlapped completion times so
// the caller can Set the clock to the pipelined value.
//
// Using the classic recurrences, for buffer i with fill time F[i] and
// consume time C[i]:
//
//	fillStart[i] = max(fillEnd[i-1], consEnd[i-depth])
//	fillEnd[i]   = fillStart[i] + F[i]
//	consStart[i] = max(fillEnd[i], consEnd[i-1])
//	consEnd[i]   = consStart[i] + C[i]
//
// With Depth == 1 the pipeline degenerates to strictly serial execution.
// Nothing reads further back than buffer i-Depth, so the two series live in
// a ring of Depth slots indexed by i.
type Pipeline struct {
	// Depth is the number of buffers (2 for double buffering).
	Depth int

	i        int // index of the next buffer to fill
	ring     []pipeSlot
	base     time.Duration
	lastCons time.Duration
}

// pipeSlot holds fillEnd and consEnd of the last buffer filled into it.
type pipeSlot struct{ fillEnd, consEnd time.Duration }

// NewPipeline returns a pipeline with the given buffer depth, starting at
// simulated time start.
func NewPipeline(depth int, start time.Duration) *Pipeline {
	if depth < 1 {
		depth = 1
	}
	return &Pipeline{Depth: depth, ring: make([]pipeSlot, depth), base: start, lastCons: start}
}

// Fill records that the next buffer took fillCost to produce, and returns
// the simulated time at which the consumer may begin draining it.
func (p *Pipeline) Fill(fillCost time.Duration) (consStart time.Duration) {
	fillStart := p.base
	if p.i > 0 {
		fillStart = p.fillEndAt(p.i - 1)
		// The slot being refilled was last used by buffer i-Depth (with one
		// buffer, the previous one), which must have been fully consumed.
		if j := p.i - p.Depth; j >= 0 {
			fillStart = max(fillStart, p.consEndAt(j))
		}
	}
	fillEnd := fillStart + fillCost
	consStart = max(fillEnd, p.consEndAt(p.i-1))
	// Buffer i takes over the slot of buffer i-Depth, read above for the
	// last time. The consume end is reserved here; Consume finalizes it.
	p.ring[p.i%len(p.ring)] = pipeSlot{fillEnd: fillEnd, consEnd: consStart}
	p.i++
	return consStart
}

// Consume records that the most recently filled buffer took consCost to
// drain, and returns the simulated time at which draining finishes.
func (p *Pipeline) Consume(consCost time.Duration) (consEnd time.Duration) {
	if p.i == 0 {
		return p.base
	}
	s := &p.ring[(p.i-1)%len(p.ring)]
	s.consEnd += consCost
	p.lastCons = s.consEnd
	return s.consEnd
}

// End reports the simulated completion time of everything recorded so far.
func (p *Pipeline) End() time.Duration { return p.lastCons }

// fillEndAt and consEndAt read buffer i, one of the last Depth filled, or
// the start time for i < 0.
func (p *Pipeline) fillEndAt(i int) time.Duration {
	if i < 0 {
		return p.base
	}
	return p.ring[i%len(p.ring)].fillEnd
}

func (p *Pipeline) consEndAt(i int) time.Duration {
	if i < 0 {
		return p.base
	}
	return p.ring[i%len(p.ring)].consEnd
}
