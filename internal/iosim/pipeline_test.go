package iosim

import (
	"testing"
	"testing/quick"
	"time"
)

func runPipeline(depth int, fills, cons []time.Duration) time.Duration {
	p := NewPipeline(depth, 0)
	for i := range fills {
		p.Fill(fills[i])
		p.Consume(cons[i])
	}
	return p.End()
}

func TestPipelineSerialIsSum(t *testing.T) {
	fills := []time.Duration{2, 3, 1}
	cons := []time.Duration{4, 1, 2}
	got := runPipeline(1, fills, cons)
	want := time.Duration(2 + 4 + 3 + 1 + 1 + 2)
	if got != want {
		t.Fatalf("serial end = %v, want %v", got, want)
	}
}

func TestPipelineDoubleBufferOverlaps(t *testing.T) {
	// Three buffers, fill=2, consume=4 each.
	// fill0 ends at 2; cons0 2..6. fill1 overlaps: 2..4; cons1 6..10.
	// fill2 starts max(fillEnd1=4, consEnd0=6)=6 (slot reuse), ends 8; cons2 10..14.
	fills := []time.Duration{2, 2, 2}
	cons := []time.Duration{4, 4, 4}
	got := runPipeline(2, fills, cons)
	if want := time.Duration(14); got != want {
		t.Fatalf("double-buffered end = %v, want %v", got, want)
	}
	serial := runPipeline(1, fills, cons)
	if want := time.Duration(18); serial != want {
		t.Fatalf("serial end = %v, want %v", serial, want)
	}
}

func TestPipelineIOBound(t *testing.T) {
	// When fills dominate, total ~ sum(fills) + last consume.
	fills := []time.Duration{10, 10, 10}
	cons := []time.Duration{1, 1, 1}
	got := runPipeline(2, fills, cons)
	if want := time.Duration(31); got != want {
		t.Fatalf("io-bound end = %v, want %v", got, want)
	}
}

func TestPipelineComputeBound(t *testing.T) {
	// When consumes dominate, total ~ first fill + sum(cons).
	fills := []time.Duration{1, 1, 1}
	cons := []time.Duration{10, 10, 10}
	got := runPipeline(2, fills, cons)
	if want := time.Duration(31); got != want {
		t.Fatalf("compute-bound end = %v, want %v", got, want)
	}
}

func TestPipelineStartOffset(t *testing.T) {
	p := NewPipeline(2, 100)
	cs := p.Fill(5)
	if cs != 105 {
		t.Fatalf("consStart = %v, want 105", cs)
	}
	if end := p.Consume(3); end != 108 {
		t.Fatalf("consEnd = %v, want 108", end)
	}
}

func TestPipelineEmptyEnd(t *testing.T) {
	p := NewPipeline(2, 42)
	if p.End() != 42 {
		t.Fatalf("empty pipeline End = %v, want base", p.End())
	}
	if p.Consume(5) != 42 {
		t.Fatal("Consume without Fill must be a no-op at base time")
	}
}

func TestPipelineDepthClamp(t *testing.T) {
	p := NewPipeline(0, 0)
	if p.Depth != 1 {
		t.Fatalf("depth 0 should clamp to 1, got %d", p.Depth)
	}
}

// Property: the Depth-slot ring returns what the recurrences return over the
// whole history, at depths 1 to 4, for every Fill and Consume.
func TestPipelineRingMatchesHistory(t *testing.T) {
	const start = 7
	f := func(raw []uint16, d uint8) bool {
		depth := int(d%4) + 1
		p := NewPipeline(depth, start)
		var fillEnd, consEnd []time.Duration
		at := func(s []time.Duration, i int) time.Duration {
			if i < 0 {
				return start
			}
			return s[i]
		}
		for i := 0; i+1 < len(raw); i += 2 {
			fill, cons := time.Duration(raw[i]), time.Duration(raw[i+1])
			n := len(fillEnd)
			fillStart := time.Duration(start)
			if n > 0 {
				fillStart = max(fillEnd[n-1], at(consEnd, n-depth))
			}
			fillEnd = append(fillEnd, fillStart+fill)
			consStart := max(fillEnd[n], at(consEnd, n-1))
			consEnd = append(consEnd, consStart+cons)
			if p.Fill(fill) != consStart || p.Consume(cons) != consEnd[n] {
				return false
			}
		}
		return p.End() == at(consEnd, len(consEnd)-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: double buffering never takes longer than serial execution and
// never finishes before max(total fill, total consume) given the first fill.
func TestPipelineBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		n := len(raw) / 2
		fills := make([]time.Duration, n)
		cons := make([]time.Duration, n)
		var sumF, sumC time.Duration
		for i := 0; i < n; i++ {
			fills[i] = time.Duration(raw[2*i]) * time.Microsecond
			cons[i] = time.Duration(raw[2*i+1]) * time.Microsecond
			sumF += fills[i]
			sumC += cons[i]
		}
		double := runPipeline(2, fills, cons)
		serial := runPipeline(1, fills, cons)
		if double > serial {
			return false
		}
		// Lower bounds: all fills are serial on one thread; all consumes on
		// the other; the first consume cannot start before the first fill.
		if double < sumF+cons[n-1] && double < fills[0]+sumC {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
