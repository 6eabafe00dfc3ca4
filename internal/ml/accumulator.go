package ml

// gradAccumulator folds sparse per-tuple gradients into a dense accumulator,
// deduplicating repeated indices via a touched list so the optimizer's
// per-coordinate state is stepped once per mini-batch. It is the Trainer's
// mini-batch reducer.
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

// Add folds one sparse gradient into the accumulator. Entries are applied in
// slice order, so the floating-point accumulation order is exactly the order
// in which (gi, gv) pairs were produced.
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
// next Add, Gather, or Clear.
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

// Step averages the accumulated gradient over count tuples, applies one
// optimizer step to w, and clears the accumulator.
func (a *gradAccumulator) Step(opt Optimizer, w []float64, count int) {
	if count <= 0 {
		return
	}
	gi, gv := a.Gather(1 / float64(count))
	opt.Step(w, gi, gv)
	a.Clear()
}

// gradDest is where a backward pass puts its gradient entries: appended to
// gi/gv, or — when acc is set, as on gradBatch's out-of-row path — folded
// straight into acc by the addEntry step Add applies to a (gi, gv) log (the
// row writers below inline it). Either way every coordinate receives the same
// values in the same order.
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
	gi, gv := d.gi, d.gv
	for i, idx := range idxs {
		gi = append(gi, base+idx)
		gv = append(gv, float64(g*vals[i]))
	}
	d.gi, d.gv = gi, gv
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
	gi, gv := d.gi, d.gv
	for i, v := range vals {
		if v == 0 {
			continue
		}
		gi = append(gi, base+int32(i))
		gv = append(gv, float64(g*v))
	}
	d.gi, d.gv = gi, gv
}
