package data

import "testing"

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
