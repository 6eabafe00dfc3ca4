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
	predict := Predictor(m, w)
	for i := range ds.Tuples {
		t := &ds.Tuples[i]
		pred := predict(t)
		if multi {
			if int(pred) == classIndex(t.Label, maxInt(ds.Classes, 2)) {
				correct++
			}
		} else if (pred >= 0) == (t.Label >= 0) {
			correct++
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
	for i := range ds.Tuples {
		t := &ds.Tuples[i]
		r := t.Label - m.Predict(w, t)
		ssRes += r * r
		d := t.Label - mean
		ssTot += d * d
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
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
// the AUC. It applies to binary (±1 label) datasets.
func ModelAUC(m Model, w []float64, ds *data.Dataset) float64 {
	scores := make([]float64, ds.Len())
	labels := make([]float64, ds.Len())
	score := DecisionValue(m, w)
	for i := range ds.Tuples {
		t := &ds.Tuples[i]
		scores[i] = score(t)
		labels[i] = t.Label
	}
	return AUC(scores, labels)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
