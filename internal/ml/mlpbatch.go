package ml

import (
	"math"

	"corgipile/internal/data"
)

// rowLayout is how a tuple's gradient entries fall on a W1 row, as
// gradBatch classifies the tuple.
type rowLayout uint8

const (
	// layoutPrefix is a sparse tuple whose indices are exactly 0…n−1: its
	// row entries are its n stored values, zeros included, on coordinates
	// [0, n), in its row when n ≤ features.
	layoutPrefix rowLayout = iota
	// layoutSparse is any other sparse tuple, in its row when every index
	// is below features.
	layoutSparse
	// layoutDense is a dense tuple, in its row when it has at most
	// features values; its zeros make no entries.
	layoutDense
)

// layoutOf classifies t against a W1 row of features coordinates, for
// gradBatch and for the forward pass's choice of loops. inRow is
// false when an entry of t would land outside its row: an index at or past
// features, or a dense row longer than features. Every index is checked; no
// decoder enforces Tuple's increasing order, so the last one proves nothing.
// A row of a decoded table that carries data.PrefixIdx is known to be a
// prefix without the scan (prefixRow).
func layoutOf(t *data.Tuple, features int) (l rowLayout, inRow bool) {
	if !t.IsSparse() {
		return layoutDense, len(t.Dense) <= features
	}
	if prefixRow(t) {
		return layoutPrefix, len(t.SparseIdx) <= features
	}
	for _, idx := range t.SparseIdx {
		if int(idx) >= features {
			return layoutSparse, false
		}
	}
	return layoutSparse, true
}

// gradBatch implements Model. Into a (gi, gv) destination it runs backward
// tuple after tuple. Into an accumulator it runs batch-major, because the
// weights are the same for every tuple of a mini-batch: it stages every
// tuple's forward pass and deltas (stage), marks the coordinates the batch
// reaches (markBatch), then adds every accumulator row with one gemvT call
// over the whole batch (addBatch). Every coordinate receives the rounded
// values backward would put, in the order backward called tuple after tuple
// would put them, beside signed zeros that change no bits, so the
// accumulator's values, marks and touched order come out bit-identical
// (DESIGN.md "Bit-exact kernels"). The accumulator may hold earlier tuples
// of the same batch.
//
// Two kinds of batch go through backward tuple after tuple there too: one
// holding a tuple with an entry outside its W1 row, which lands on another
// row's coordinates out of order, and one in which a staged value is not
// finite, where a zero times it would add a NaN.
func (m MLP) gradBatch(ws *Workspace, w []float64, ts []data.Tuple, d *gradDest) []float64 {
	features := m.features(w)
	losses := scratch(&ws.loss, len(ts))
	if d.acc == nil {
		return m.backwardEach(ws, w, ts, d)
	}
	layout := scratch(&ws.layout, len(ts))
	holes := false
	for i := range ts {
		l, inRow := layoutOf(&ts[i], features)
		if !inRow {
			return m.backwardEach(ws, w, ts, d)
		}
		layout[i] = l
		holes = holes || l == layoutSparse
	}
	if !m.stage(ws, w, ts, features, holes) {
		return m.backwardEach(ws, w, ts, d)
	}
	m.markBatch(ws, ts, features, d.acc)
	m.addBatch(ws, ts, features, holes, d.acc.acc)
	return losses
}

// backwardEach is gradBatch on backward, tuple after tuple.
func (m MLP) backwardEach(ws *Workspace, w []float64, ts []data.Tuple, d *gradDest) []float64 {
	for i := range ts {
		ws.loss[i] = m.backward(ws, w, &ts[i], d)
	}
	return ws.loss
}

// stage runs every tuple's forward pass and deltas into ws, a row per tuple:
// its loss, and at the lane strides hs and cs its hidden activations (bh),
// its hidden deltas gated by the ReLU, zero where h is (bdh), and its output
// deltas (bdk), padding lanes zero. It then lays the deltas out unit-major
// (dkT, dhT: a row of len(ts) values per unit) and, unless holes, the
// tuples' values in x, each row zero-padded to pad4(features). It reports
// whether every staged value is finite.
func (m MLP) stage(ws *Workspace, w []float64, ts []data.Tuple, features int, holes bool) bool {
	H, C, B := m.Hidden, m.Classes, len(ts)
	lw := m.transpose(ws, w, features)
	hs, cs := lw.hs, lw.cs
	bh, bdk, bdh := scratch(&ws.bh, B*hs), scratch(&ws.bdk, B*cs), scratch(&ws.bdh, B*hs)
	for i := range ts {
		h, dk, dh := bh[i*hs:(i+1)*hs], bdk[i*cs:(i+1)*cs], bdh[i*hs:(i+1)*hs]
		ws.loss[i] = m.deltas(h[:H], dk[:C], dh[:H], w, &ts[i], features, lw, ws.layout[i])
		clear(h[H:])
		clear(dk[C:])
		clear(dh[H:])
		for j, v := range h[:H] {
			dh[j] = gate(v, dh[j])
		}
	}
	transposeInto(scratch(&ws.dkT, cs*B), bdk, B, cs, B)
	transposeInto(scratch(&ws.dhT, hs*B), bdh, B, hs, B)
	z := zeroed(bh) + zeroed(bdk) + zeroed(bdh)
	if !holes {
		xs := pad4(features)
		x := scratch(&ws.x, B*xs)
		for i := range ts {
			row := x[i*xs : (i+1)*xs]
			n := copy(row, runValues(&ts[i], ws.layout[i]))
			clear(row[n:])
		}
		z += zeroed(x)
	}
	return z == 0
}

// runValues returns the values of t, a dense or prefix tuple, as a run from
// coordinate 0 of a W1 row: a dense tuple's Dense, a prefix tuple's n stored
// values.
func runValues(t *data.Tuple, l rowLayout) []float64 {
	if l == layoutPrefix {
		return t.SparseVal[:len(t.SparseIdx)]
	}
	return t.Dense
}

// gate returns the hidden delta g where the ReLU let h through (h > 0) and
// +0 where it did not (h = +0), as backward's test h[j] <= 0 skips the unit.
// It masks g's bits instead of branching: whether a hidden unit fires is a
// coin toss a branch predictor loses.
func gate(h, g float64) float64 {
	hb := math.Float64bits(h) // a ReLU output: +0, positive or +Inf
	return math.Float64frombits(math.Float64bits(g) & uint64(-int64(hb)>>63))
}

// zeroed returns the sum of v·0 over vs: a signed zero when every v is
// finite, NaN when one is infinite or NaN. It keeps four sums, so no add
// waits on the one before it.
func zeroed(vs []float64) float64 {
	var s0, s1, s2, s3 float64
	for ; len(vs) >= 4; vs = vs[4:] {
		s0 += vs[0] * 0
		s1 += vs[1] * 0
		s2 += vs[2] * 0
		s3 += vs[3] * 0
	}
	for _, v := range vs {
		s0 += v * 0
	}
	return s0 + s1 + s2 + s3
}

// markBatch marks every coordinate the batch's entries reach and appends the
// ones not yet marked to acc.touched, in the order backward's entries, tuple
// after tuple, would first touch them. It visits only the rows that may
// still hold an unmarked coordinate and stops at the first tuple where none
// does, which on full rows comes after a few tuples: each W2 row keeps the
// list of hidden units not yet marked, and each W1 row the length of a
// prefix known to be marked.
func (m MLP) markBatch(ws *Workspace, ts []data.Tuple, features int, acc *gradAccumulator) {
	H, C := m.Hidden, m.Classes
	hs, cs := pad4(H), pad4(C)
	in1, in2 := features+1, H+1
	off := H * in1
	mark, touched := acc.mark, acc.touched

	// unmarked[k*H:][:nUnmarked[k]] holds, ascending, the hidden units
	// whose coordinate in W2 row k is not yet marked. open2 lists,
	// ascending, the W2 rows with a coordinate not yet marked.
	unmarked := scratch(&ws.unmarked, C*H)
	nUnmarked := scratch(&ws.nUnmarked, C)
	open2 := scratch(&ws.open2, C)[:0]
	for k := range nUnmarked {
		base, n := off+k*in2, 0
		for j := 0; j < H; j++ {
			if !mark[base+j] {
				unmarked[k*H+n] = int32(j)
				n++
			}
		}
		nUnmarked[k] = n
		if n > 0 || !mark[base+H] {
			open2 = append(open2, int32(k))
		}
	}
	// W1 row j's coordinates [0, markedPrefix[j]) are all marked. open1
	// lists, ascending, the W1 rows with a coordinate not yet marked.
	markedPrefix := scratch(&ws.markedPrefix, H)
	open1 := scratch(&ws.open1, H)[:0]
	for j := range markedPrefix {
		base, p := j*in1, 0
		for p < features && mark[base+p] {
			p++
		}
		markedPrefix[j] = p
		if p < features || !mark[base+features] {
			open1 = append(open1, int32(j))
		}
	}

	for i := 0; i < len(ts) && len(open2)+len(open1) > 0; i++ {
		t, layout := &ts[i], ws.layout[i]
		h, dk, dh := ws.bh[i*hs:][:H], ws.bdk[i*cs:][:C], ws.bdh[i*hs:][:H]
		n2 := 0
		for _, k := range open2 {
			if dk[k] != 0 {
				base := off + int(k)*in2
				free := unmarked[int(k)*H : int(k)*H+nUnmarked[k]]
				n := 0
				for _, j := range free {
					if h[j] != 0 {
						mark[base+int(j)] = true
						touched = append(touched, int32(base)+j)
					} else {
						free[n] = j
						n++
					}
				}
				nUnmarked[k] = n
				if c := base + H; !mark[c] {
					mark[c] = true
					touched = append(touched, int32(c))
				}
				if n == 0 {
					continue // the row is complete
				}
			}
			open2[n2] = k
			n2++
		}
		open2 = open2[:n2]

		n1 := 0
		for _, j := range open1 {
			if dh[j] != 0 { // gated: the ReLU let the delta through
				base, p := int(j)*in1, markedPrefix[j]
				switch layout {
				case layoutPrefix:
					n := len(t.SparseIdx)
					for c := base + p; c < base+n; c++ {
						if !mark[c] {
							mark[c] = true
							touched = append(touched, int32(c))
						}
					}
					p = max(p, n)
				case layoutSparse:
					row := mark[base : base+features]
					for q, idx := range t.SparseIdx {
						if !row[idx] {
							// The rest of the tuple goes the slow way.
							for _, idx := range t.SparseIdx[q:] {
								if !row[idx] {
									row[idx] = true
									touched = append(touched, int32(base)+idx)
								}
							}
							break
						}
					}
				default:
					for c := p; c < len(t.Dense); c++ {
						if t.Dense[c] != 0 && !mark[base+c] {
							mark[base+c] = true
							touched = append(touched, int32(base+c))
						}
					}
				}
				for p < features && mark[base+p] {
					p++
				}
				markedPrefix[j] = p
				if c := base + features; !mark[c] {
					mark[c] = true
					touched = append(touched, int32(c))
				}
				if p == features {
					continue // the row is complete
				}
			}
			open1[n1] = j
			n1++
		}
		open1 = open1[:n1]
	}
	acc.touched = touched
}

// addBatch adds the batch's entries into acc a row at a time, each row with
// one gemvTRounded call over the whole batch, so every coordinate gets its
// adds in tuple order: W2 row k is dkT[k] over bh, W1 row j dhT[j] over x,
// and each layer's biases are one call over a vector of ones. The adds
// backward does not make are of a finite staged value times zero (a zero
// delta, a unit the ReLU gated, a dense tuple's zero, x's padding): a
// signed zero, and a sum that starts at +0 is never −0 (x + (−x) and
// +0 + (−0) are +0), so each leaves its coordinate as it was, an unmarked
// one at +0. A batch with holes adds its W1 rows tuple by tuple instead,
// scattering the entries of each tuple whose gated delta is nonzero.
func (m MLP) addBatch(ws *Workspace, ts []data.Tuple, features int, holes bool, acc []float64) {
	H, C, B := m.Hidden, m.Classes, len(ts)
	hs, cs := pad4(H), pad4(C)
	in1, in2 := features+1, H+1
	off := H * in1

	for k := 0; k < C; k++ {
		gemvTRounded(acc[off+k*in2:][:H], ws.dkT[k*B:(k+1)*B], ws.bh, hs)
	}
	if !holes {
		xs := pad4(features)
		for j := 0; j < H; j++ {
			gemvTRounded(acc[j*in1:][:features], ws.dhT[j*B:(j+1)*B], ws.x, xs)
		}
	} else {
		active := scratch(&ws.active, B)
		for j := 0; j < H; j++ {
			row, dh := acc[j*in1:][:features], ws.dhT[j*B:(j+1)*B]
			// active[:n] lists the tuples whose gated delta is nonzero,
			// gathered without a branch per tuple.
			n := 0
			for i, g := range dh {
				active[n] = int32(i)
				b := math.Float64bits(g) << 1 // the sign dropped
				n += int((b | -b) >> 63)
			}
			for _, i := range active[:n] {
				g := dh[i]
				if t := &ts[i]; t.IsSparse() {
					vals := t.SparseVal[:len(t.SparseIdx)]
					for c, idx := range t.SparseIdx {
						row[idx] += float64(g * vals[c])
					}
				} else {
					for c, v := range t.Dense {
						row[c] += float64(g * v)
					}
				}
			}
		}
	}

	ones := scratch(&ws.ones, B)
	for i := range ones {
		ones[i] = 1
	}
	bias := scratch(&ws.bias, max(C, H))
	addBiases(bias[:C], acc[off+H:], in2, ones, ws.bdk, cs)
	addBiases(bias[:H], acc[features:], in1, ones, ws.bdh, hs)
}

// addBiases adds column l of the batch-major deltas d (a row of stride
// values per tuple) into acc[l·step], for each lane l of bias, with one
// gemvTRounded call over ones: bias gathers the coordinates and takes the
// call.
func addBiases(bias, acc []float64, step int, ones, d []float64, stride int) {
	for l := range bias {
		bias[l] = acc[l*step]
	}
	gemvTRounded(bias, ones, d, stride)
	for l, v := range bias {
		acc[l*step] = v
	}
}
