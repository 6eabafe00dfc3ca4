package data

import (
	"math"
	"math/rand"
	"testing"
)

func denseTuple(vals ...float64) Tuple {
	return Tuple{Dense: vals}
}

func sparseTuple(idx []int32, val []float64) Tuple {
	return Tuple{SparseIdx: idx, SparseVal: val}
}

func TestTupleIsSparse(t *testing.T) {
	d := denseTuple(1, 2)
	s := sparseTuple([]int32{0}, []float64{1})
	if d.IsSparse() {
		t.Fatal("dense tuple reported sparse")
	}
	if !s.IsSparse() {
		t.Fatal("sparse tuple reported dense")
	}
}

func TestDotDense(t *testing.T) {
	tp := denseTuple(1, 2, 3)
	w := []float64{4, 5, 6}
	if got := tp.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotSparse(t *testing.T) {
	tp := sparseTuple([]int32{1, 3}, []float64{2, 4})
	w := []float64{10, 20, 30, 40}
	if got := tp.Dot(w); got != 2*20+4*40 {
		t.Fatalf("Dot = %v, want %v", got, 2*20+4*40)
	}
}

func TestDotOutOfRangeIgnored(t *testing.T) {
	tp := sparseTuple([]int32{0, 100}, []float64{1, 99})
	w := []float64{5}
	if got := tp.Dot(w); got != 5 {
		t.Fatalf("Dot = %v, want 5 (index 100 ignored)", got)
	}
	d := denseTuple(1, 2, 3)
	if got := d.Dot([]float64{1}); got != 1 {
		t.Fatalf("short-w dense Dot = %v, want 1", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := Tuple{ID: 7, Label: 1, Dense: []float64{1, 2}}
	c := orig.Clone()
	c.Dense[0] = 99
	if orig.Dense[0] != 1 {
		t.Fatal("Clone shares dense storage")
	}
	s := sparseTuple([]int32{1}, []float64{2})
	cs := s.Clone()
	cs.SparseVal[0] = 99
	if s.SparseVal[0] != 2 {
		t.Fatal("Clone shares sparse storage")
	}
}

func TestNNZ(t *testing.T) {
	d := denseTuple(1, 2, 3)
	if got := d.NNZ(); got != 3 {
		t.Fatalf("dense NNZ = %d, want 3", got)
	}
	s := sparseTuple([]int32{5}, []float64{1})
	if got := s.NNZ(); got != 1 {
		t.Fatalf("sparse NNZ = %d, want 1", got)
	}
}

func TestEncodedSize(t *testing.T) {
	d := denseTuple(1, 2)
	if got, want := d.EncodedSize(), 21+16; got != want {
		t.Fatalf("dense EncodedSize = %d, want %d", got, want)
	}
	s := sparseTuple([]int32{1, 2}, []float64{1, 2})
	if got, want := s.EncodedSize(), 21+24; got != want {
		t.Fatalf("sparse EncodedSize = %d, want %d", got, want)
	}
}

func TestTupleString(t *testing.T) {
	tp := Tuple{ID: 3, Label: -1, Dense: []float64{1}}
	if got := tp.String(); got != "tuple{id=3 label=-1 dense nnz=1}" {
		t.Fatalf("String = %q", got)
	}
}

// A tuple carrying PrefixIdx takes Dot's dense loop; its value must be the
// sparse loop's over a private copy of the same indices, bit for bit, with
// fewer, as many and more stored values than w has coordinates.
func TestDotPrefixMatchesPrivateIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 17, 18, 19, 40, PrefixCap} {
		for _, dim := range []int{1, 18, 33} {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17)-8))
			}
			w := make([]float64, dim)
			for i := range w {
				w[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17)-8))
			}
			shared := Tuple{SparseIdx: PrefixIdx(n), SparseVal: vals}
			private := Tuple{SparseIdx: append(make([]int32, 0, n), PrefixIdx(n)...), SparseVal: vals}
			if _, ok := shared.Row(); !ok {
				t.Fatalf("n=%d: a tuple carrying PrefixIdx has no Row", n)
			}
			if _, ok := private.Row(); ok && n > 0 {
				t.Fatalf("n=%d: a tuple with private indices 0…n−1 has a Row", n)
			}
			got, want := shared.Dot(w), private.Dot(w)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d, len(w)=%d: prefix Dot %v (%#x), private Dot %v (%#x)",
					n, dim, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// PrefixIdx is capacity-clamped: an append to it reallocates and leaves
// the shared indices as they were.
func TestPrefixIdxIsCapacityClamped(t *testing.T) {
	p := PrefixIdx(3)
	if cap(p) != 3 {
		t.Fatalf("cap(PrefixIdx(3)) = %d, want 3", cap(p))
	}
	_ = append(p, -1)
	if got := PrefixIdx(4)[3]; got != 3 {
		t.Fatalf("an append to PrefixIdx(3) wrote %d into index 3", got)
	}
}
