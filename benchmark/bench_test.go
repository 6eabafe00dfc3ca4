package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// tinySeconds is the -seconds of a test run; race_test.go raises it, because
// the race detector slows the serve phase tenfold.
var tinySeconds = 0.5

func tinyOptions(t *testing.T, trace bool) options {
	return options{seed: 7, seconds: tinySeconds, trace: trace, tiny: true, out: t.TempDir(), tmp: t.TempDir()}
}

// Every workload runs end to end at tiny sizes, in both passes, with every
// check passing and every metric of the pass reported.
func TestTinyWorkloads(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(io.Discard, wl, tinyOptions(t, trace), stamp{})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d operations failed", wl.Name, trace, res.Failed, res.Attempted)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%t: %d metrics reported, want %d", wl.Name, trace, len(res.Metrics), len(specs))
			}
			for _, m := range specs {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s reported as %+v", wl.Name, trace, m.Name, got)
				}
			}
		}
	}
}

// The workloads, metrics, units, directions and bounds the tool prints are
// the ones BENCHMARK.json declares: the file is `benchmark -spec`, verbatim.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the schema allows 200", w.Name, len(w.Why))
		}
	}
	if !bytes.Equal(committed, want) {
		t.Errorf("BENCHMARK.json differs from the tool's tables; regenerate it with `go run . -spec > ../BENCHMARK.json`.\nthe tool has:\n%s", want)
	}
}

// The same seed gives the same request stream and the same figure for every
// metric that is a function of the seed alone; another seed gives another
// stream.
func TestSameSeedSameInputs(t *testing.T) {
	wl, _ := workloadByName("serve_mixed")
	stream := func(seed int64) []string {
		var out []string
		in := newInputs(wl.tiny(), seed)
		for conn := 0; conn < 2; conn++ {
			reqs := in.requests(conn, in.w.InsertEvery)
			for i := 0; i < 40; i++ {
				sql, _ := reqs.next()
				out = append(out, sql)
			}
		}
		return out
	}
	if !reflect.DeepEqual(stream(3), stream(3)) {
		t.Error("seed 3 gave two different request streams")
	}
	if reflect.DeepEqual(stream(3), stream(4)) {
		t.Error("seeds 3 and 4 gave the same request stream")
	}

	a, err := runWorkload(io.Discard, wl, tinyOptions(t, false), stamp{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWorkload(io.Discard, wl, tinyOptions(t, false), stamp{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		if m.Exact && a.Metrics[m.Name] != b.Metrics[m.Name] {
			t.Errorf("%s: %v then %v at the same seed", m.Name, a.Metrics[m.Name], b.Metrics[m.Name])
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5}, {0.95, 4.8},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{9}, 0.99); got != 9 {
		t.Errorf("percentile of one value = %g", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %g, want NaN", got)
	}
	if s := summarize(xs); s.Value != 3 || s.Q1 != 2 || s.Q3 != 4 || s.N != 5 {
		t.Errorf("summarize(%v) = %+v", xs, s)
	}
}

func TestServeStatistics(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	var ops []opRec
	for i := 1; i <= 100; i++ {
		ops = append(ops, opRec{kind: opWarm, lat: ms(float64(i))})
	}
	ops = append(ops, opRec{kind: opCold, lat: ms(500)}, opRec{kind: opInsert, lat: ms(7)})
	if got := latenciesMs(ops, opCold); !reflect.DeepEqual(got, []float64{500}) {
		t.Errorf("cold latencies = %v", got)
	}
	got := fast(latenciesMs(ops, opWarm))
	if math.Abs(got.Value-5.95) > 1e-9 || got.N != 100 || got.Q1 != 25.75 || got.Q3 != 75.25 {
		t.Errorf("fast(1..100 ms) = %+v, want the 5th percentile 5.95 beside quartiles 25.75 and 75.25", got)
	}
}
