package ml

import "corgipile/internal/data"

// The lane kernel, gemvT: a loop whose every output value is its own
// sequential sum, so vector lanes can carry several of those sums side by
// side without reordering a single add (DESIGN.md "Bit-exact kernels"). It
// has a Go reference loop and, on amd64, an AVX-512 and an AVX2 form;
// laneTier names the one that runs. The reference runs wherever neither
// assembly form does (another CPU or GOARCH), and the tests hold both forms
// to it, bit for bit. The wrapper checks every length before the kernel
// runs, so a short slice panics here instead of being read past its end.
// It runs the MLP's forward layers and hidden deltas, and, through
// gemvTRounded, the batch gradient's row adds.

// kernelTier is a form of the lane kernel.
type kernelTier uint8

const (
	tierGo     kernelTier = iota // the Go reference loops
	tierAVX2                     // lanes_amd64.s on YMM registers
	tierAVX512                   // lanes_amd64.s on ZMM registers and opmasks
)

// gemvT sets acc[l] = acc[l] + x[i]·m[i·stride+l] for every lane l of acc,
// i ascending: each lane's sum in order, the product rounded before the
// add. m holds len(x) rows of stride values, and stride is at least len(acc)
// rounded up to a multiple of 4, so the kernel may read whole groups of
// four lanes from every row.
func gemvT(acc, x, m []float64, stride int) {
	if stride < pad4(len(acc)) || len(m) < len(x)*stride {
		panic("ml: gemvT: matrix shorter than its lanes")
	}
	gemvTKernel(acc, x, m, stride)
}

// gemvTGo is gemvT's reference loop.
func gemvTGo(acc, x, m []float64, stride int) {
	for i, xi := range x {
		row := m[i*stride : i*stride+len(acc)]
		for l, v := range row {
			acc[l] = acc[l] + xi*v
		}
	}
}

// gemvTRounded is gemvT for the batch gradient's row adds, where every
// value is finite, every sum is never −0, and backward rounds each product
// before its add (float64(g·v)). The assembly tiers run gemvT itself: they
// multiply, then add. The Go tier is a loop of its own. It rounds each
// product explicitly, since a compiler off amd64 may fuse gemvTGo's
// a*b + c (as it fuses the scalar forward loops gemvT stands in for
// there). It also skips each x[i] of zero: those products are a finite
// value times zero, signed zeros that change no bit of such a sum.
func gemvTRounded(acc, x, m []float64, stride int) {
	if laneTier != tierGo {
		gemvT(acc, x, m, stride)
		return
	}
	if stride < pad4(len(acc)) || len(m) < len(x)*stride {
		panic("ml: gemvTRounded: matrix shorter than its lanes")
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m[i*stride:][:len(acc)]
		for l := range row {
			acc[l] += float64(xi * row[l])
		}
	}
}

// pad4 rounds n up to a multiple of 4, a whole number of lane groups.
func pad4(n int) int { return (n + 3) &^ 3 }

// laneWeights is an MLP's weights laid out for gemvT: W1ᵀ, features+1 rows
// of hs lanes with the hidden biases in the last; W2ᵀ, Hidden+1 rows of cs
// lanes with the output biases in the last; and W2 itself without its
// biases, Classes rows of hs lanes, for the hidden deltas. hs and cs are
// Hidden and Classes padded to a multiple of 4. The AVX2 and reference
// forms compute on the padding lanes and never store them; they are zero,
// not stale scratch, because a subnormal there would cost a microcode
// assist on every pass. The zero laneWeights stands for the scalar loops.
type laneWeights struct {
	w1t, w2t, w2 []float64
	hs, cs       int
}

// transpose builds w's laneWeights in ws's scratch, valid until the next
// call with ws and for as long as w holds the same values.
func (m MLP) transpose(ws *Workspace, w []float64, features int) laneWeights {
	H, C := m.Hidden, m.Classes
	in1, in2 := features+1, H+1
	hs, cs := pad4(H), pad4(C)
	buf := scratch(&ws.lanes, in1*hs+in2*cs+C*hs)
	w1t, w2t, w2 := buf[:in1*hs], buf[in1*hs:in1*hs+in2*cs], buf[in1*hs+in2*cs:]
	transposeInto(w1t, w, H, in1, hs)
	transposeInto(w2t, w[H*in1:], C, in2, cs)
	for i := 0; i < in1; i++ {
		clear(w1t[i*hs+H : (i+1)*hs])
	}
	for j := 0; j < in2; j++ {
		clear(w2t[j*cs+C : (j+1)*cs])
	}
	for k := 0; k < C; k++ {
		row := w2[k*hs : (k+1)*hs]
		copy(row, w[H*in1+k*in2:][:H])
		clear(row[H:])
	}
	return laneWeights{w1t: w1t, w2t: w2t, w2: w2, hs: hs, cs: cs}
}

// transposeInto writes the rows × cols matrix src into dst as its
// transpose: cols rows of stride values. Four source rows go per pass, so
// each pass fills four adjacent values of every destination row.
func transposeInto(dst, src []float64, rows, cols, stride int) {
	j := 0
	for ; j+4 <= rows; j += 4 {
		r0 := src[j*cols : (j+1)*cols]
		r1 := src[(j+1)*cols : (j+2)*cols]
		r2 := src[(j+2)*cols : (j+3)*cols]
		r3 := src[(j+3)*cols : (j+4)*cols]
		for i := range r0 {
			d := dst[i*stride+j : i*stride+j+4]
			d[0], d[1], d[2], d[3] = r0[i], r1[i], r2[i], r3[i]
		}
	}
	for ; j < rows; j++ {
		col := dst[j:]
		for i, v := range src[j*cols : (j+1)*cols] {
			col[i*stride] = v
		}
	}
}

// hidden sets h[j] = ReLU(Σ_i x_i·W1[j][i] + b1[j]) on gemvT, for a tuple
// of layout l, dense or prefix: its values cut to features are the x that
// hiddenLayer's dense loop takes, summed from 0 in the same order, the bias
// added after.
func (lw laneWeights) hidden(h []float64, t *data.Tuple, l rowLayout, features int) {
	xs := runValues(t, l)
	xs = xs[:min(len(xs), features)]
	clear(h)
	gemvT(h, xs, lw.w1t, lw.hs)
	for j, b := range lw.w1t[features*lw.hs:][:len(h)] {
		h[j] = relu(h[j] + b)
	}
}

// hiddenDeltas sets dh[j] = Σ_k dk[k]·W2[k][j] on gemvT, one call per
// maximal run of nonzero dk[k]: the k with dk[k] = 0 skipped and the rest
// added in k order, each sum from 0, as deltas' scalar loop adds them.
func (lw laneWeights) hiddenDeltas(dh, dk []float64) {
	clear(dh)
	for k := 0; k < len(dk); {
		if dk[k] == 0 {
			k++
			continue
		}
		end := k + 1
		for end < len(dk) && dk[end] != 0 {
			end++
		}
		gemvT(dh, dk[k:end], lw.w2[k*lw.hs:], lw.hs)
		k = end
	}
}
