package obs

import "time"

// Span measures one named interval on the registry's clock — an epoch, a
// buffer refill, an SGD batch. Ending a span records its duration into the
// histogram of the same name and, when a JSONL sink is attached, emits a
// span event.
//
// Spans nest: a span started while another is active records that span as
// its parent (the registry keeps a stack of active spans, which matches the
// single-goroutine structure of the training loop). All methods are no-ops
// on a nil *Span, so `defer reg.Span("epoch").End()` is safe even when reg
// is nil.
type Span struct {
	reg        *Registry
	name       string
	id, parent int64
	start      time.Duration
	ended      bool
}

// Span starts a span named name, parented to the innermost active span.
// Returns nil (a no-op span) on a nil registry.
func (r *Registry) Span(name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.spanSeq++
	sp := &Span{reg: r, name: name, id: r.spanSeq}
	if n := len(r.spans); n > 0 {
		sp.parent = r.spans[n-1]
	}
	r.spans = append(r.spans, sp.id)
	clock := r.clock
	r.mu.Unlock()
	if clock != nil {
		sp.start = clock.Now()
	}
	return sp
}

// End closes the span, records its duration into the same-named histogram,
// emits a JSONL span event if a sink is attached, and returns the duration.
// Ending twice is a no-op. Durations are clamped at zero: pipelined
// components may Set the simulated clock backwards (overlap accounting).
func (s *Span) End() time.Duration {
	if s == nil || s.ended {
		return 0
	}
	dur := s.close() - s.start
	if dur < 0 {
		dur = 0
	}
	s.reg.Observe(s.name, dur)
	s.reg.emitSpan(s, dur)
	return dur
}

// Cancel closes the span without recording it, for an interval that turned
// out not to be one (a refill that found its source exhausted).
func (s *Span) Cancel() {
	if s != nil && !s.ended {
		s.close()
	}
}

// close marks the span ended, pops it from the active stack and returns the
// clock's time.
func (s *Span) close() (end time.Duration) {
	s.ended = true
	r := s.reg
	r.mu.Lock()
	if r.clock != nil {
		end = r.clock.Now()
	}
	// It may not be on top when spans end out of order; remove the matching
	// entry.
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i] == s.id {
			r.spans = append(r.spans[:i], r.spans[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
	return end
}
