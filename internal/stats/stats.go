// Package stats implements the distribution analyses the paper uses to
// visualize shuffling quality (Figures 3–4) — tuple-id scatter, windowed
// label histograms, order-randomness scores — plus plain-text table and
// series rendering for the benchmark reports.
package stats

import (
	"math"
	"sort"
)

// LabelWindow is one bar group of the paper's label-distribution plots:
// the count of negative and positive tuples among `window` consecutive
// emissions.
type LabelWindow struct {
	// Neg and Pos count labels < 0 and >= 0 respectively.
	Neg, Pos int
}

// LabelWindows histograms emitted labels in consecutive windows (the paper
// uses windows of 20 tuples).
func LabelWindows(labels []float64, window int) []LabelWindow {
	if window <= 0 {
		window = 20
	}
	var out []LabelWindow
	for lo := 0; lo < len(labels); lo += window {
		hi := lo + window
		if hi > len(labels) {
			hi = len(labels)
		}
		var w LabelWindow
		for _, l := range labels[lo:hi] {
			if l < 0 {
				w.Neg++
			} else {
				w.Pos++
			}
		}
		out = append(out, w)
	}
	return out
}

// LabelMixScore measures how evenly two classes are interleaved in an
// emission order: 1 − mean |neg/window − p| / p̄max over windows, scaled to
// [0, 1], where p is the global negative fraction. A perfectly interleaved
// stream scores near 1; a fully clustered stream scores near 0.
func LabelMixScore(labels []float64, window int) float64 {
	if len(labels) == 0 {
		return 0
	}
	wins := LabelWindows(labels, window)
	var negTotal int
	for _, l := range labels {
		if l < 0 {
			negTotal++
		}
	}
	p := float64(negTotal) / float64(len(labels))
	// The worst possible mean deviation (fully clustered) is 2p(1−p).
	worst := 2 * p * (1 - p)
	if worst == 0 {
		return 1
	}
	var dev float64
	for _, w := range wins {
		n := w.Neg + w.Pos
		if n == 0 {
			continue
		}
		dev += math.Abs(float64(w.Neg)/float64(n) - p)
	}
	dev /= float64(len(wins))
	score := 1 - dev/worst
	if score < 0 {
		return 0
	}
	if score > 1 {
		return 1
	}
	return score
}

// OrderCorrelation returns the Spearman rank correlation between emission
// position and original tuple id. An unshuffled stream scores ≈ 1; a fully
// shuffled stream scores ≈ 0. This is the scalar summary of the paper's
// tuple-id scatter plots (Figures 3a–d and 4a).
func OrderCorrelation(ids []int64) float64 {
	n := len(ids)
	if n < 2 {
		return 1
	}
	// Emission positions are already ranks 0..n-1; rank the ids.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ids[idx[a]] < ids[idx[b]] })
	rank := make([]float64, n)
	for r, i := range idx {
		rank[i] = float64(r)
	}
	// Pearson correlation between position i and rank[i].
	mean := float64(n-1) / 2
	var num, den float64
	for i := 0; i < n; i++ {
		num += (float64(i) - mean) * (rank[i] - mean)
		den += (float64(i) - mean) * (float64(i) - mean)
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// MeanDisplacement returns the mean |emission position − original id|
// normalized by n — 0 for an unshuffled stream, approaching 1/3 for a
// uniform shuffle.
func MeanDisplacement(ids []int64) float64 {
	n := len(ids)
	if n == 0 {
		return 0
	}
	var sum float64
	for i, id := range ids {
		sum += math.Abs(float64(i) - float64(id))
	}
	return sum / float64(n) / float64(n)
}
