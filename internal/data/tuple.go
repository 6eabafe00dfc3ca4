// Package data defines the training-tuple and dataset types shared by the
// whole system, synthetic workload generators shaped like the paper's
// datasets, and a LIBSVM text codec for loading real files.
package data

import (
	"fmt"
	"unsafe"
)

// Tuple is one training example — a row of the paper's
// ⟨id, features_k[], features_v[], label⟩ schema.
//
// A tuple is either dense (Dense non-nil) or sparse (SparseIdx/SparseVal
// non-nil); exactly one representation is populated. Label holds ±1 for
// binary classification, the class index for multi-class problems, and the
// target value for regression.
type Tuple struct {
	// ID is the tuple's position in the original storage order. The
	// distribution analyses of Figures 3–4 plot this value after shuffling.
	ID int64
	// Label is the supervised target.
	Label float64
	// Dense holds the feature vector of a dense tuple.
	Dense []float64
	// SparseIdx and SparseVal hold the non-zero dimensions of a sparse
	// tuple, in strictly increasing index order.
	SparseIdx []int32
	SparseVal []float64
}

// IsSparse reports whether the tuple uses the sparse representation.
func (t *Tuple) IsSparse() bool { return t.Dense == nil }

// NNZ returns the number of stored feature values.
func (t *Tuple) NNZ() int {
	if t.IsSparse() {
		return len(t.SparseVal)
	}
	return len(t.Dense)
}

// PrefixCap is the longest run of indices 0…n−1 that PrefixIdx shares.
const PrefixCap = 4096

// prefix holds 0, 1, …, PrefixCap−1: the indices of every sparse tuple of a
// decoded table image that stores all of its first n features (a dense row
// stored sparse, as LIBSVM loads one). It is never written after init.
var prefix [PrefixCap]int32

func init() {
	for i := range prefix {
		prefix[i] = int32(i)
	}
}

// PrefixIdx returns the shared indices 0…n−1, 0 ≤ n ≤ PrefixCap, with
// capacity clamped to n so an append reallocates. The slice is read-only:
// a tuple carrying it must never have its indices edited in place. Only a
// decoded table image hands it out (ARCHITECTURE.md "Block decode and who
// owns the result").
func PrefixIdx(n int) []int32 { return prefix[:n:n] }

// Row returns the tuple's features as a dense row x[0:n] when it has one: a
// dense tuple's Dense, or the SparseVal of a sparse tuple whose indices are
// PrefixIdx's, recognised by one pointer comparison. ok is false for any
// other sparse tuple, including one whose private indices happen to be
// 0…n−1.
func (t *Tuple) Row() (xs []float64, ok bool) {
	if !t.IsSparse() {
		return t.Dense, true
	}
	if unsafe.SliceData(t.SparseIdx) == &prefix[0] {
		return t.SparseVal[:len(t.SparseIdx)], true
	}
	return nil, false
}

// Dot returns the inner product ⟨w, x⟩ of the weight vector w with the
// tuple's feature vector. Indices outside len(w) are ignored.
//
// A tuple with a Row takes the dense loop. For a sparse tuple carrying
// PrefixIdx, idx < len(w) holds exactly when i < len(w), so both loops
// perform the same products in the same order (DESIGN.md "Bit-exact
// kernels").
func (t *Tuple) Dot(w []float64) float64 {
	var s float64
	xs, ok := t.Row()
	if !ok {
		for i, idx := range t.SparseIdx {
			if int(idx) < len(w) {
				s += w[idx] * t.SparseVal[i]
			}
		}
		return s
	}
	if len(xs) > len(w) {
		xs = xs[:len(w)]
	}
	w = w[:len(xs)]
	for i, x := range xs {
		s += w[i] * x
	}
	return s
}

// Clone returns a deep copy of the tuple.
func (t *Tuple) Clone() Tuple {
	c := Tuple{ID: t.ID, Label: t.Label}
	if t.Dense != nil {
		c.Dense = append([]float64(nil), t.Dense...)
	}
	if t.SparseIdx != nil {
		c.SparseIdx = append([]int32(nil), t.SparseIdx...)
		c.SparseVal = append([]float64(nil), t.SparseVal...)
	}
	return c
}

// EncodedSize returns the number of bytes the tuple occupies in the storage
// codec of internal/storage (kept in sync with that package's format so the
// generators can size tables without encoding twice).
func (t *Tuple) EncodedSize() int {
	// header: id(8) + label(8) + flags(1) + count(4)
	n := 21
	if t.IsSparse() {
		n += len(t.SparseIdx) * (4 + 8)
	} else {
		n += len(t.Dense) * 8
	}
	return n
}

// String implements fmt.Stringer for debugging.
func (t *Tuple) String() string {
	kind := "dense"
	if t.IsSparse() {
		kind = "sparse"
	}
	return fmt.Sprintf("tuple{id=%d label=%g %s nnz=%d}", t.ID, t.Label, kind, t.NNZ())
}
