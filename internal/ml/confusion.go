package ml

import (
	"fmt"
	"strings"

	"corgipile/internal/data"
)

// Confusion is a K×K confusion matrix: Counts[actual][predicted].
type Confusion struct {
	// Classes is the number of classes K.
	Classes int
	// Counts[a][p] counts tuples of actual class a predicted as p.
	Counts [][]int
}

// NewConfusion returns an empty K-class matrix.
func NewConfusion(classes int) *Confusion {
	if classes < 2 {
		classes = 2
	}
	c := &Confusion{Classes: classes, Counts: make([][]int, classes)}
	for i := range c.Counts {
		c.Counts[i] = make([]int, classes)
	}
	return c
}

// Add records one observation.
func (c *Confusion) Add(actual, predicted int) {
	if actual < 0 || actual >= c.Classes || predicted < 0 || predicted >= c.Classes {
		return
	}
	c.Counts[actual][predicted]++
}

// Total returns the number of recorded observations.
func (c *Confusion) Total() int {
	n := 0
	for _, row := range c.Counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Accuracy returns the trace fraction.
func (c *Confusion) Accuracy() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	correct := 0
	for i := range c.Counts {
		correct += c.Counts[i][i]
	}
	return float64(correct) / float64(total)
}

// Precision returns TP/(TP+FP) for class k (0 when the class is never
// predicted).
func (c *Confusion) Precision(k int) float64 {
	var predicted int
	for a := 0; a < c.Classes; a++ {
		predicted += c.Counts[a][k]
	}
	if predicted == 0 {
		return 0
	}
	return float64(c.Counts[k][k]) / float64(predicted)
}

// Recall returns TP/(TP+FN) for class k (0 when the class never occurs).
func (c *Confusion) Recall(k int) float64 {
	var actual int
	for p := 0; p < c.Classes; p++ {
		actual += c.Counts[k][p]
	}
	if actual == 0 {
		return 0
	}
	return float64(c.Counts[k][k]) / float64(actual)
}

// F1 returns the harmonic mean of precision and recall for class k.
func (c *Confusion) F1(k int) float64 {
	p, r := c.Precision(k), c.Recall(k)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MacroF1 averages F1 over all classes.
func (c *Confusion) MacroF1() float64 {
	var sum float64
	for k := 0; k < c.Classes; k++ {
		sum += c.F1(k)
	}
	return sum / float64(c.Classes)
}

// String renders the matrix compactly.
func (c *Confusion) String() string {
	var b strings.Builder
	for a := range c.Counts {
		if a > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%d:%v", a, c.Counts[a])
	}
	return b.String()
}

// Confuse evaluates the model over ds and returns the confusion matrix.
// Binary ±1 labels map to classes {0, 1}.
func Confuse(m Model, w []float64, ds *data.Dataset) *Confusion {
	classes := ds.Classes
	if classes < 2 {
		classes = 2
	}
	c := NewConfusion(classes)
	predict := Predictor(m)
	for i := range ds.Tuples {
		t := &ds.Tuples[i]
		actual := classIndex(t.Label, classes)
		pred := classIndex(predict(w, t), classes)
		c.Add(actual, pred)
	}
	return c
}
