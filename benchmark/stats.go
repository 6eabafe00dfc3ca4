package main

import (
	"math"
	"sort"
	"time"
)

// sample is one reported figure: the gating value plus the spread and the
// count behind it, so a reader can tell a median of 5 from a median of 5000.
type sample struct {
	Value  float64
	Q1, Q3 float64
	N      int
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. An empty input gives NaN.
func percentile(xs []float64, p float64) float64 {
	return quantile(sorted(xs), p)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is percentile over an already sorted slice.
func quantile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := math.Min(math.Max(p, 0), 1) * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// summarize reports the median of xs with its quartiles and count.
func summarize(xs []float64) sample {
	s := sorted(xs)
	return sample{Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// opKind classifies a completed request of the serve phase.
type opKind int

const (
	opWarm opKind = iota // PREDICT answered from the cached table
	opCold               // first PREDICT after an INSERT: pays DecodeAll
	opInsert
)

// opRec is one completed request of a closed-loop phase.
type opRec struct {
	kind opKind
	lat  time.Duration
}

// latenciesMs returns the latencies, in milliseconds, of the ops of a kind.
func latenciesMs(ops []opRec, kind opKind) []float64 {
	var out []float64
	for _, op := range ops {
		if op.kind == kind {
			out = append(out, float64(op.lat)/float64(time.Millisecond))
		}
	}
	return out
}

// fastQuantile is the quantile every timing is taken at, unless its name
// says otherwise. The box's noise is one-sided: a neighbour on the sibling
// hyperthread slows a stretch of requests by half and never speeds one up,
// and in a bad minute that stretch covers most of a run. A low quantile is
// the service time of a request that ran undisturbed. Over eight identical
// runs in a bad minute the median PREDICT latency moved by 34-40% (IQR /
// median), the 10th percentile by 5-14% and the 5th by 3-7%; lower still
// gains little and leaves a 50-INSERT phase with under three samples below.
const fastQuantile = 0.05

// fast reports the fastQuantile of xs, with the quartiles and the count of
// the whole sample beside it.
func fast(xs []float64) sample {
	s := summarize(xs)
	s.Value = percentile(xs, fastQuantile)
	return s
}
