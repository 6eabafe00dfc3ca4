package ml

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"corgipile/internal/data"
)

// laneSpecials are the values a lane fuzz input can name beside ordinary
// ones: signed zeros, a NaN, infinities, subnormals, and values whose
// products overflow. The NaN is the one x86 produces itself (0/0, ∞−∞):
// given two NaN operands, an SSE or AVX instruction returns the first one's
// payload, and Go's compiler orders the operands of a float add or multiply
// as it likes, so which of two payloads a Go loop keeps is not defined.
// With one payload in play, every NaN of a run has the same bits.
var laneSpecials = []float64{
	0, math.Copysign(0, -1), math.Float64frombits(0xFFF8000000000000),
	math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 2.5e-310, 1e308, -1e308,
}

// laneInput reads a lane fuzz input: a byte stream that repeats once used
// up. A byte of 246 and up names one of laneSpecials; any other byte b is
// int8(b)/3, whose products round.
type laneInput struct {
	b   []byte
	pos int
}

func (in *laneInput) byte() byte {
	if len(in.b) == 0 {
		return 0
	}
	v := in.b[in.pos%len(in.b)]
	in.pos++
	return v
}

func (in *laneInput) value() float64 {
	b := in.byte()
	if int(b) >= 256-len(laneSpecials) {
		return laneSpecials[int(b)-(256-len(laneSpecials))]
	}
	return float64(int8(b)) / 3
}

func (in *laneInput) values(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = in.value()
	}
	return v
}

// sentinel marks the capacity past a slice's length, which no kernel may
// write.
var sentinel = math.Float64frombits(0x7FF4DEADBEEF0001)

// withSentinels returns a copy of v with four sentinels in its capacity.
func withSentinels(v []float64) []float64 {
	return append(slices.Clone(v), sentinel, sentinel, sentinel, sentinel)[: len(v) : len(v)+4]
}

// sameBits reports the first index where got and want differ in their bits,
// counting the sentinels past got's length, or -1.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	for i, v := range got[len(got):cap(got)] {
		if math.Float64bits(v) != math.Float64bits(sentinel) {
			return len(got) + i
		}
	}
	return -1
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// laneTiers are the lane kernels' forms, widest first, each with whether
// this CPU runs it.
var laneTiers = []struct {
	name  string
	tier  kernelTier
	onCPU bool
}{
	{"avx512", tierAVX512, hasAVX512},
	{"avx2", tierAVX2, hasAVX2},
	{"go", tierGo, true},
}

// forEachTier runs f once per lane kernel tier, as a subtest or
// sub-benchmark named after it with laneTier set to it; a tier this CPU
// lacks is skipped, saying so.
func forEachTier[T interface {
	testing.TB
	Run(string, func(T)) bool
}](t T, f func(T)) {
	for _, tc := range laneTiers {
		t.Run(tc.name, func(t T) {
			if !tc.onCPU {
				t.Skipf("this CPU (or its OS) does not run the %s lane kernels", tc.name)
			}
			defer func(saved kernelTier) { laneTier = saved }(laneTier)
			laneTier = tc.tier
			f(t)
		})
	}
}

// checkLaneKernels decodes b and holds gemvT, in laneTier's form, to its Go
// reference loop, bit for bit, sentinels included, and gemvTRounded too on
// the inputs the gradient sends it; a slice one value short must panic. Layout: lanes b%73, n b%81, stride padding b%3 groups, then
// the values. The ranges cover every shape gradBatch sends: a batch of 64
// and more as x, and W1 rows past two 32-lane AVX-512 blocks.
func checkLaneKernels(b []byte) error {
	in := &laneInput{b: b}
	lanes, n, extra := int(in.byte())%73, int(in.byte())%81, int(in.byte())%3
	stride := pad4(lanes) + 4*extra

	acc, x, m := in.values(lanes), in.values(n), in.values(n*stride)
	got, want := withSentinels(acc), slices.Clone(acc)
	gemvT(got, x, m, stride)
	gemvTGo(want, x, m, stride)
	if i := sameBits(got, want); i >= 0 {
		return fmt.Errorf("gemvT lanes=%d n=%d stride=%d: lane %d differs from gemvTGo", lanes, n, stride, i)
	}
	if n > 0 && !panics(func() { gemvT(got, x, m[:len(m)-1], stride) }) {
		return fmt.Errorf("gemvT lanes=%d n=%d: a matrix one value short did not panic", lanes, n)
	}
	if lanes > 0 && !panics(func() { gemvT(got, x, m, pad4(lanes)-1) }) {
		return fmt.Errorf("gemvT lanes=%d: a stride under the padded lanes did not panic", lanes)
	}

	// gemvTRounded on what the gradient sends it, a finite m and sums that
	// are never −0, gives gemvTGo's bits.
	for i, v := range m {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			m[i] = 1
		}
	}
	for i, v := range acc {
		if v == 0 {
			acc[i] = 0
		}
	}
	got, want = withSentinels(acc), slices.Clone(acc)
	gemvTRounded(got, x, m, stride)
	gemvTGo(want, x, m, stride)
	if i := sameBits(got, want); i >= 0 {
		return fmt.Errorf("gemvTRounded lanes=%d n=%d stride=%d: lane %d differs from gemvTGo", lanes, n, stride, i)
	}
	if n > 0 && !panics(func() { gemvTRounded(got, x, m[:len(m)-1], stride) }) {
		return fmt.Errorf("gemvTRounded lanes=%d n=%d: a matrix one value short did not panic", lanes, n)
	}
	return nil
}

// laneSeeds returns one input per lane count from 1 to 72, with n from 0
// up, and gradBatch's shapes at its benchmark size (a batch of 64 over 10
// classes, 32 hidden units and 64 features), with about one value in eight
// a special one.
func laneSeeds() [][]byte {
	rng := rand.New(rand.NewSource(42))
	seed := func(lanes, n, extra int) []byte {
		b := []byte{byte(lanes), byte(n), byte(extra)}
		for range 61 {
			if rng.Intn(8) == 0 {
				b = append(b, byte(256-len(laneSpecials)+rng.Intn(len(laneSpecials))))
			} else {
				b = append(b, byte(rng.Intn(256-len(laneSpecials))))
			}
		}
		return b
	}
	var seeds [][]byte
	for lanes := 1; lanes <= 72; lanes++ {
		seeds = append(seeds, seed(lanes, lanes*7%81, lanes%3))
	}
	for _, lanes := range []int{10, 32, 33, 64, 65, 72} {
		seeds = append(seeds, seed(lanes, 64, 0), seed(lanes, 80, 0))
	}
	return seeds
}

// FuzzLaneKernels holds every lane kernel tier the CPU runs to the Go
// reference loop (checkLaneKernels), one subtest per tier; the go subtest
// holds the reference to itself and checks the wrapper's panics.
func FuzzLaneKernels(f *testing.F) {
	for _, s := range laneSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		forEachTier(t, func(t *testing.T) {
			if err := checkLaneKernels(b); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestAccuracyMatchesPredict: the eval pass (Accuracy) and PREDICT's bound
// predictor, both on the lane kernels, agree with Model.Predict, on the
// scalar loops, tuple by tuple, and so do the forward pass's activations and
// probabilities, bit for bit: on TestMLPGolden's four layouts, at hidden
// widths and class counts on and off a multiple of four and eight lanes,
// with finite, overflowed and infinite weights, on every kernel tier.
func TestAccuracyMatchesPredict(t *testing.T) {
	forEachTier(t, testAccuracyMatchesPredict)
}

func testAccuracyMatchesPredict(t *testing.T) {
	const features, n = 20, 60
	rng := rand.New(rand.NewSource(53))
	for _, kind := range goldenLayouts {
		for _, classes := range []int{2, 10, 17} {
			ts := goldenLayout(rng, kind, n, features, classes)
			ts = append(ts, data.Tuple{Label: 1, Dense: make([]float64, features+3)}) // longer than a row
			ds := &data.Dataset{Task: data.TaskMulticlass, Features: features, Classes: classes, Tuples: ts}
			for _, hidden := range []int{5, 30, 32, 48} {
				m := MLP{Classes: classes, Hidden: hidden}
				w := make([]float64, m.Dim(features))
				m.InitWeights(w, features, rng)
				for name, w := range weightVariants(m, w, features) {
					predict := Predictor(m, w)
					var ws Workspace
					lw := m.transpose(&ws, w, features)
					h, p := make([]float64, hidden), make([]float64, classes)
					sh, sp := make([]float64, hidden), make([]float64, classes)
					correct := 0
					for i := range ts {
						l, _ := layoutOf(&ts[i], features)
						m.outputs(h, p, w, &ts[i], features, lw, l)
						m.outputs(sh, sp, w, &ts[i], features, laneWeights{}, 0)
						if j := sameBits(h, sh); j >= 0 {
							t.Fatalf("%s classes=%d hidden=%d %s tuple %d: lane activation %d differs", kind, classes, hidden, name, i, j)
						}
						if k := sameBits(p, sp); k >= 0 {
							t.Fatalf("%s classes=%d hidden=%d %s tuple %d: lane probability %d differs", kind, classes, hidden, name, i, k)
						}
						got, want := predict(&ts[i]), m.Predict(w, &ts[i])
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s classes=%d hidden=%d %s tuple %d: bound predictor %v, Predict %v",
								kind, classes, hidden, name, i, got, want)
						}
						if int(want) == classIndex(ts[i].Label, classes) {
							correct++
						}
					}
					if got, want := Accuracy(m, w, ds), float64(correct)/float64(len(ts)); got != want {
						t.Errorf("%s classes=%d hidden=%d %s: Accuracy %v, per-tuple Predict gives %v",
							kind, classes, hidden, name, got, want)
					}
				}
			}
		}
	}
}
