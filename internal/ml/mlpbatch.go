package ml

import "corgipile/internal/data"

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
func layoutOf(t *data.Tuple, features int) (l rowLayout, inRow bool) {
	if !t.IsSparse() {
		return layoutDense, len(t.Dense) <= features
	}
	if gapFree(t.SparseIdx) {
		return layoutPrefix, len(t.SparseIdx) <= features
	}
	for _, idx := range t.SparseIdx {
		if int(idx) >= features {
			return layoutSparse, false
		}
	}
	return layoutSparse, true
}

// gradBatch adds the gradients of ts, in order, into acc and returns their
// losses, valid until the next call with ws. The weights are the same for
// every tuple of a mini-batch, so it runs batch-major: every tuple's forward
// pass and deltas into ws first, then one tuple-major pass that marks
// coordinates (markBatch), then one row-major pass that adds the entries
// (addBatch). Every coordinate receives the rounded values backward would
// put, in the order backward called tuple after tuple would put them, so
// acc's values, marks and touched order come out bit-identical (DESIGN.md
// "Bit-exact kernels"). acc may hold earlier tuples of the same batch.
//
// A tuple with an entry outside its W1 row lands on another row's
// coordinates, which the row-major pass would reach out of order; a batch
// holding one goes through backward tuple after tuple instead.
func (m MLP) gradBatch(ws *Workspace, w []float64, ts []data.Tuple, acc *gradAccumulator) []float64 {
	features := m.features(w)
	losses := scratch(&ws.loss, len(ts))
	layout := scratch(&ws.layout, len(ts))
	for i := range ts {
		l, inRow := layoutOf(&ts[i], features)
		if !inRow {
			d := gradDest{acc: acc}
			for i := range ts {
				losses[i] = m.backward(ws, w, &ts[i], &d)
			}
			return losses
		}
		layout[i] = l
	}
	H, C := m.Hidden, m.Classes
	bh := scratch(&ws.bh, len(ts)*H)
	bdk := scratch(&ws.bdk, len(ts)*C)
	bdh := scratch(&ws.bdh, len(ts)*H)
	lw := m.transpose(ws, w, features)
	for i := range ts {
		losses[i] = m.deltas(bh[i*H:(i+1)*H], bdk[i*C:(i+1)*C], bdh[i*H:(i+1)*H], w, &ts[i], features, lw, layout[i])
	}
	m.markBatch(ws, ts, features, acc)
	m.addBatch(ws, ts, features, acc.acc)
	return losses
}

// markBatch marks every coordinate the batch's entries reach and appends the
// ones not yet marked to acc.touched, in the order backward's entries, tuple
// after tuple, would first touch them. It visits only what may still be
// unmarked: each W2 row keeps the list of hidden units not yet marked, and
// each W1 row the length of a prefix known to be marked, which a prefix
// tuple of n values extends to n. It also lists, per hidden unit, the tuples
// that reach its W1 row, which addBatch walks.
func (m MLP) markBatch(ws *Workspace, ts []data.Tuple, features int, acc *gradAccumulator) {
	H, C := m.Hidden, m.Classes
	in1 := features + 1
	off := H * in1
	in2 := H + 1
	mark, touched := acc.mark, acc.touched

	// unmarked[k*H:][:nUnmarked[k]] holds, ascending, the hidden units
	// whose coordinate in W2 row k is not yet marked.
	unmarked := scratch(&ws.unmarked, C*H)
	nUnmarked := scratch(&ws.nUnmarked, C)
	for k := range nUnmarked {
		base, n := off+k*in2, 0
		for j := 0; j < H; j++ {
			if !mark[base+j] {
				unmarked[k*H+n] = int32(j)
				n++
			}
		}
		nUnmarked[k] = n
	}
	// W1 row j's coordinates [0, markedPrefix[j]) are all marked.
	markedPrefix := scratch(&ws.markedPrefix, H)
	clear(markedPrefix)
	// active[j*B:][:nActive[j]] lists, in order, the tuples whose ReLU lets
	// a gradient through hidden unit j, for addBatch.
	B := len(ts)
	active := scratch(&ws.active, H*B)
	nActive := scratch(&ws.nActive, H)
	clear(nActive)

	for i := range ts {
		t, layout := &ts[i], ws.layout[i]
		h, dk, dh := ws.bh[i*H:(i+1)*H], ws.bdk[i*C:(i+1)*C], ws.bdh[i*H:(i+1)*H]
		for k, g := range dk {
			if g == 0 {
				continue
			}
			base := off + k*in2
			free := unmarked[k*H : k*H+nUnmarked[k]]
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
		}
		for j, g := range dh {
			if h[j] <= 0 || g == 0 {
				continue
			}
			active[j*B+nActive[j]] = int32(i)
			nActive[j]++
			base := j * in1
			switch layout {
			case layoutPrefix:
				n := len(t.SparseIdx)
				for c := base + markedPrefix[j]; c < base+n; c++ {
					if !mark[c] {
						mark[c] = true
						touched = append(touched, int32(c))
					}
				}
				markedPrefix[j] = max(markedPrefix[j], n)
			case layoutSparse:
				row := mark[base : base+features]
				for p, idx := range t.SparseIdx {
					if !row[idx] {
						// The rest of the tuple goes the slow way.
						for _, idx := range t.SparseIdx[p:] {
							if !row[idx] {
								row[idx] = true
								touched = append(touched, int32(base)+idx)
							}
						}
						break
					}
				}
			default:
				for c, v := range t.Dense {
					if v != 0 && !mark[base+c] {
						mark[base+c] = true
						touched = append(touched, int32(base+c))
					}
				}
			}
			if c := base + features; !mark[c] {
				mark[c] = true
				touched = append(touched, int32(c))
			}
		}
	}
	acc.touched = touched
}

// addBatch adds the batch's entries into acc a row at a time, visiting the
// tuples in order within each row, so every coordinate gets its adds in
// stream order. Within a row the entries that are a run of values from
// coordinate 0 go four tuples per pass over the row (rowAdder); any other
// entry first drains the tuples waiting for a pass.
//
// A W2 row's entries are dk·h, the ReLU's zeros included, when dk is
// finite: dk·0 is a signed zero, and a sum that starts at +0 is never −0
// (x + (−x) and +0 + (−0) are +0), so adding it leaves every coordinate as
// it was, an unmarked one at +0. A non-finite dk makes NaN of a zero, so its
// row skips the zeros as backward does. A W1 row's run entries are a prefix
// tuple's stored values, and a dense tuple's values when g is finite, by the
// same signed-zero argument.
func (m MLP) addBatch(ws *Workspace, ts []data.Tuple, features int, acc []float64) {
	H, C := m.Hidden, m.Classes
	in1 := features + 1
	off := H * in1
	in2 := H + 1
	bh, bdk, bdh, layout := ws.bh, ws.bdk, ws.bdh, ws.layout

	for k := 0; k < C; k++ {
		row := acc[off+k*in2 : off+(k+1)*in2]
		ra := rowAdder{row: row[:H]}
		for i := range ts {
			g := bdk[i*C+k]
			if g == 0 {
				continue
			}
			h := bh[i*H : (i+1)*H]
			if finite(g) {
				ra.add(g, h)
			} else {
				ra.addNonzero(g, h)
			}
			row[H] += g
		}
		ra.flush()
	}

	B := len(ts)
	for j := 0; j < H; j++ {
		row := acc[j*in1 : (j+1)*in1]
		ra := rowAdder{row: row[:features]}
		for _, i := range ws.active[j*B : j*B+ws.nActive[j]] {
			g := bdh[int(i)*H+j]
			t := &ts[i]
			switch {
			case layout[i] == layoutPrefix:
				ra.add(g, t.SparseVal[:len(t.SparseIdx)])
			case layout[i] == layoutDense && finite(g):
				ra.add(g, t.Dense)
			case layout[i] == layoutSparse:
				ra.flush()
				vals := t.SparseVal[:len(t.SparseIdx)]
				for c, idx := range t.SparseIdx {
					ra.row[idx] += float64(g * vals[c])
				}
			default:
				ra.addNonzero(g, t.Dense)
			}
			row[features] += g
		}
		ra.flush()
	}
}

// rowAdder adds runs of entries into one row of the accumulator: add(g, xs)
// stands for row[c] += float64(g·xs[c]) for every c of xs, and the adds
// reach every coordinate in the order add was called. It holds up to four
// runs and adds them in one pass over the row.
type rowAdder struct {
	row []float64
	g   [4]float64
	xs  [4][]float64
	n   int // runs held
}

// add queues the run g·xs, adding the four held runs once it has them.
func (a *rowAdder) add(g float64, xs []float64) {
	a.g[a.n], a.xs[a.n] = g, xs
	if a.n++; a.n == 4 {
		addRows4(a.row, &a.g, &a.xs)
		a.n = 0
	}
}

// addNonzero adds g·xs[c] for the c whose xs[c] is not zero, after the held
// runs: backward's dense form, for a g that would make NaN of the zeros.
func (a *rowAdder) addNonzero(g float64, xs []float64) {
	a.flush()
	for c, x := range xs {
		if x != 0 {
			a.row[c] += float64(g * x)
		}
	}
}

// flush adds the held runs, in order; call it before any other add to the
// row and after the last run.
func (a *rowAdder) flush() {
	for q := range a.n {
		addRow(a.row, a.g[q], a.xs[q])
	}
	a.n = 0
}

// addRows4 adds g[q]·xs[q][c] into row[c] for the four runs, in q order at
// every coordinate: one pass over the coordinates all four reach
// (addRuns4), then each run's tail in turn.
func addRows4(row []float64, g *[4]float64, xs *[4][]float64) {
	n := min(len(xs[0]), len(xs[1]), len(xs[2]), len(xs[3]))
	addRuns4(row[:n], g, xs[0], xs[1], xs[2], xs[3])
	for q := range xs {
		addRow(row[n:], g[q], xs[q][n:])
	}
}

// addRow adds g·xs[c] into row[c] for every c.
func addRow(row []float64, g float64, xs []float64) {
	row = row[:len(xs)]
	for c, x := range xs {
		row[c] += float64(g * x)
	}
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return x-x == 0 }
