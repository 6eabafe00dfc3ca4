// Package data defines the training-tuple and dataset types shared by the
// whole system, synthetic workload generators shaped like the paper's
// datasets, and a LIBSVM text codec for loading real files.
package data

import "fmt"

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

// Dot returns the inner product ⟨w, x⟩ of the weight vector w with the
// tuple's feature vector. Indices outside len(w) are ignored.
func (t *Tuple) Dot(w []float64) float64 {
	var s float64
	if t.IsSparse() {
		for i, idx := range t.SparseIdx {
			if int(idx) < len(w) {
				s += w[idx] * t.SparseVal[i]
			}
		}
		return s
	}
	n := len(t.Dense)
	if len(w) < n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		s += w[i] * t.Dense[i]
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
