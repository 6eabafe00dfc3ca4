package ml

import (
	"slices"

	"corgipile/internal/data"
)

// gradAccumulator folds sparse per-tuple gradients into a dense accumulator,
// deduplicating repeated indices via a touched list so the optimizer's
// per-coordinate state is stepped once per mini-batch. It is the Trainer's
// mini-batch reducer; gradDest's put methods fill it.
type gradAccumulator struct {
	acc     []float64 // dense gradient accumulator
	mark    []bool    // whether a coordinate is already in touched
	touched []int32
	gv      []float64 // gather buffer handed to Optimizer.Step
}

// Reset sizes the accumulator for a weight vector of dimension dim and
// clears any pending state. Buffers are reused when already large enough.
func (a *gradAccumulator) Reset(dim int) {
	if len(a.acc) < dim {
		a.acc = make([]float64, dim)
		a.mark = make([]bool, dim)
	}
	a.Clear()
}

// Add folds one sparse gradient (gi, gv) into the accumulator, entry by
// entry in slice order. Storing a value in gv rounded it, so no compiler
// can fuse its product into the add.
func (a *gradAccumulator) Add(gi []int32, gv []float64) {
	for i, idx := range gi {
		a.addEntry(idx, gv[i])
	}
}

// addEntry folds one (index, value) entry: the first touch of a coordinate
// marks it and appends it to touched, then the value is added.
func (a *gradAccumulator) addEntry(idx int32, v float64) {
	if !a.mark[idx] {
		a.mark[idx] = true
		a.touched = append(a.touched, idx)
	}
	a.acc[idx] += v
}

// Gather scales the accumulated gradient by inv (1/batchSize for averaging)
// and returns it in sparse form. The returned slices are valid until the
// next entry, Gather, or Clear.
func (a *gradAccumulator) Gather(inv float64) ([]int32, []float64) {
	a.gv = a.gv[:0]
	for _, idx := range a.touched {
		a.gv = append(a.gv, a.acc[idx]*inv)
	}
	return a.touched, a.gv
}

// Clear zeroes the touched coordinates and empties the touched list, leaving
// capacity in place for the next batch.
func (a *gradAccumulator) Clear() {
	for _, idx := range a.touched {
		a.acc[idx] = 0
		a.mark[idx] = false
	}
	a.touched = a.touched[:0]
	a.gv = a.gv[:0]
}

// gradDest is where a model's gradBatch puts its gradient entries: appended
// to gi/gv, or — when acc is set, as in a mini-batch — folded straight into
// acc by addEntry (the row writers below inline it). Either way every
// coordinate receives the same values in the same order, so gradBatch into
// acc leaves it as Grad's (gi, gv) folded through addEntry entry by entry
// would.
type gradDest struct {
	gi  []int32
	gv  []float64
	acc *gradAccumulator
}

// put emits one gradient entry.
func (d *gradDest) put(idx int32, v float64) {
	if d.acc != nil {
		d.acc.addEntry(idx, v)
		return
	}
	d.gi = append(d.gi, idx)
	d.gv = append(d.gv, v)
}

// putScaled emits (base+idxs[i], float64(g*vals[i])) for every i: the entries
// one put per entry would emit, in the same order and with the same rounding
// (the conversion keeps a compiler from fusing the product into acc's add),
// with the destination's slices held in locals so that a row costs one call.
func (d *gradDest) putScaled(base int32, g float64, idxs []int32, vals []float64) {
	vals = vals[:len(idxs)]
	if a := d.acc; a != nil {
		acc, mark, touched := a.acc, a.mark, a.touched
		for i, idx := range idxs {
			k := base + idx
			if !mark[k] {
				mark[k] = true
				touched = append(touched, k)
			}
			acc[k] += float64(g * vals[i])
		}
		a.touched = touched
		return
	}
	// Grown once, so the loop stores without append's per-entry checks.
	n := len(d.gi)
	gi := slices.Grow(d.gi, len(idxs))[:n+len(idxs)]
	gv := slices.Grow(d.gv, len(idxs))[:n+len(idxs)]
	for i, idx := range idxs {
		gi[n+i] = base + idx
		gv[n+i] = float64(g * vals[i])
	}
	d.gi, d.gv = gi, gv
}

// putTuple emits g·x over t's entries at base: putScaled over a sparse
// tuple's stored entries, putScaledDense over a dense tuple's nonzeros.
func (d *gradDest) putTuple(base int32, g float64, t *data.Tuple) {
	if t.IsSparse() {
		d.putScaled(base, g, t.SparseIdx, t.SparseVal)
	} else {
		d.putScaledDense(base, g, t.Dense)
	}
}

// putScaledDense is putScaled over a dense row: vals[i] goes to base+i, and
// zeros are skipped.
func (d *gradDest) putScaledDense(base int32, g float64, vals []float64) {
	if a := d.acc; a != nil {
		acc, mark, touched := a.acc, a.mark, a.touched
		for i, v := range vals {
			if v == 0 {
				continue
			}
			k := base + int32(i)
			if !mark[k] {
				mark[k] = true
				touched = append(touched, k)
			}
			acc[k] += float64(g * v)
		}
		a.touched = touched
		return
	}
	n := len(d.gi)
	gi := slices.Grow(d.gi, len(vals))[:n+len(vals)]
	gv := slices.Grow(d.gv, len(vals))[:n+len(vals)]
	for i, v := range vals {
		if v == 0 {
			continue
		}
		gi[n] = base + int32(i)
		gv[n] = float64(g * v)
		n++
	}
	d.gi, d.gv = gi[:n], gv[:n]
}
