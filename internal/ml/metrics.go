package ml

import (
	"sort"

	"corgipile/internal/data"
)

// Accuracy returns the fraction of tuples in ds the model classifies
// correctly at weights w. Binary models predict ±1; multi-class models
// predict the class index.
func Accuracy(m Model, w []float64, ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	multi := ds.Task == data.TaskMulticlass
	p := newPredictPass(m, w)
	var buf [evalChunk]float64
	for lo := 0; lo < ds.Len(); lo += evalChunk {
		ts := ds.Tuples[lo:min(lo+evalChunk, ds.Len())]
		for i, pred := range p.fill(buf[:len(ts)], ts) {
			t := &ts[i]
			if multi {
				if int(pred) == classIndex(t.Label, maxInt(ds.Classes, 2)) {
					correct++
				}
			} else if (pred >= 0) == (t.Label >= 0) {
				correct++
			}
		}
	}
	return float64(correct) / float64(ds.Len())
}

// R2 returns the coefficient of determination of the model's predictions
// over a regression dataset — the metric Figure 18 reports for linear
// regression.
func R2(m Model, w []float64, ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	var mean float64
	for i := range ds.Tuples {
		mean += ds.Tuples[i].Label
	}
	mean /= float64(ds.Len())
	var ssRes, ssTot float64
	p := newPredictPass(m, w)
	var buf [evalChunk]float64
	for lo := 0; lo < ds.Len(); lo += evalChunk {
		ts := ds.Tuples[lo:min(lo+evalChunk, ds.Len())]
		for i, pred := range p.fill(buf[:len(ts)], ts) {
			r := ts[i].Label - pred
			ssRes += r * r
			d := ts[i].Label - mean
			ssTot += d * d
		}
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

// evalChunk is how many tuples a full pass scores per predictPass.fill.
const evalChunk = 64

// predictPass is a model's Predict at fixed weights over a full pass, a
// chunk of tuples at a time. A GLM scores its chunk four tuples at a time
// (margins) and maps each margin as its Predict does: the margin itself for
// linear regression, its sign as ±1 for lr and svm. Any other model runs its
// bound Predictor tuple after tuple. Either way every prediction is the one
// Predict returns, bit for bit.
type predictPass struct {
	w       []float64
	signed  bool                      // lr, svm
	predict func(*data.Tuple) float64 // nil for a GLM
}

func newPredictPass(m Model, w []float64) predictPass {
	switch m.(type) {
	case LogisticRegression, SVM:
		return predictPass{w: w, signed: true}
	case LinearRegression:
		return predictPass{w: w}
	}
	return predictPass{predict: Predictor(m, w)}
}

// fill writes the prediction of every tuple of ts into out[:len(ts)] and
// returns that prefix.
func (p *predictPass) fill(out []float64, ts []data.Tuple) []float64 {
	out = out[:len(ts)]
	if p.predict != nil {
		for i := range ts {
			out[i] = p.predict(&ts[i])
		}
		return out
	}
	margins(out, p.w, ts)
	if p.signed {
		for i, v := range out {
			if v >= 0 {
				out[i] = 1
			} else {
				out[i] = -1
			}
		}
	}
	return out
}

// margins writes margin(w, &ts[i]) into out[i] for every tuple of ts, four
// tuples per pass over w wherever all four have a Row (a dense tuple, or a
// decoded table's row carrying data.PrefixIdx). Each of the four margins
// keeps its own accumulator, starts it at 0 and adds w[j]·x[j] in
// Tuple.Dot's order, over the four rows' common length and then over its
// own remainder, before the bias: every value is bit-identical to margin's
// (DESIGN.md "Bit-exact kernels"). Other tuples go through margin.
func margins(out, w []float64, ts []data.Tuple) {
	wx, bias := w[:len(w)-1], w[len(w)-1]
	out = out[:len(ts)]
	i := 0
	for ; i+4 <= len(ts); i += 4 {
		x0, ok0 := ts[i].Row()
		x1, ok1 := ts[i+1].Row()
		x2, ok2 := ts[i+2].Row()
		x3, ok3 := ts[i+3].Row()
		if !ok0 || !ok1 || !ok2 || !ok3 {
			for k := i; k < i+4; k++ {
				out[k] = margin(w, &ts[k])
			}
			continue
		}
		n := min(len(wx), len(x0), len(x1), len(x2), len(x3))
		r, a0, a1, a2, a3 := wx[:n], x0[:n], x1[:n], x2[:n], x3[:n]
		var s0, s1, s2, s3 float64
		for j, wj := range r {
			s0 += wj * a0[j]
			s1 += wj * a1[j]
			s2 += wj * a2[j]
			s3 += wj * a3[j]
		}
		out[i] = dotFrom(s0, wx, x0, n) + bias
		out[i+1] = dotFrom(s1, wx, x1, n) + bias
		out[i+2] = dotFrom(s2, wx, x2, n) + bias
		out[i+3] = dotFrom(s3, wx, x3, n) + bias
	}
	for ; i < len(ts); i++ {
		out[i] = margin(w, &ts[i])
	}
}

// dotFrom continues Tuple.Dot's dense loop from position n: s plus w[j]·x[j]
// for j = n, …, min(len(w), len(x))−1, in order.
func dotFrom(s float64, w, x []float64, n int) float64 {
	if len(x) > len(w) {
		x = x[:len(w)]
	}
	w = w[:len(x)]
	for j := n; j < len(x); j++ {
		s += w[j] * x[j]
	}
	return s
}

// AUC computes the area under the ROC curve from ranking scores and ±1
// labels. It equals the
// probability that a random positive tuple outranks a random negative one;
// ties contribute half. Returns 0.5 on degenerate inputs.
func AUC(scores []float64, labels []float64) float64 {
	type pair struct {
		s float64
		y float64
	}
	if len(scores) != len(labels) || len(scores) == 0 {
		return 0.5
	}
	ps := make([]pair, len(scores))
	for i := range scores {
		ps[i] = pair{scores[i], labels[i]}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].s < ps[b].s })

	var pos, neg float64
	for _, p := range ps {
		if p.y > 0 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0.5
	}
	// Rank-sum (Mann–Whitney) with midranks for ties.
	var rankSumPos float64
	i := 0
	rank := 1.0
	for i < len(ps) {
		j := i
		for j < len(ps) && ps[j].s == ps[i].s {
			j++
		}
		mid := rank + float64(j-i-1)/2
		for k := i; k < j; k++ {
			if ps[k].y > 0 {
				rankSumPos += mid
			}
		}
		rank += float64(j - i)
		i = j
	}
	return (rankSumPos - pos*(pos+1)/2) / (pos * neg)
}

// ModelAUC scores every tuple with the model's decision value and returns
// the AUC. It applies to binary (±1 label) datasets. A GLM's decision value
// is its margin, scored four tuples at a time (margins).
func ModelAUC(m Model, w []float64, ds *data.Dataset) float64 {
	scores := make([]float64, ds.Len())
	labels := make([]float64, ds.Len())
	switch m.(type) {
	case LogisticRegression, SVM, LinearRegression:
		margins(scores, w, ds.Tuples)
	default:
		score := DecisionValue(m, w)
		for i := range ds.Tuples {
			scores[i] = score(&ds.Tuples[i])
		}
	}
	for i := range ds.Tuples {
		labels[i] = ds.Tuples[i].Label
	}
	return AUC(scores, labels)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
