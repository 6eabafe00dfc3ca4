package data

import (
	"fmt"
	"math/rand"
	"sort"
)

// Order describes the physical order of tuples in a dataset — the variable
// the paper's whole evaluation turns on.
type Order int

const (
	// OrderShuffled means tuples are in uniformly random order.
	OrderShuffled Order = iota
	// OrderClustered means tuples are sorted by label (all negatives before
	// all positives, or classes in ascending order) — the worst case for
	// sequential-scan SGD.
	OrderClustered
	// OrderFeature means tuples are sorted by the value of one feature
	// (Section 7.4.3).
	OrderFeature
)

// String implements fmt.Stringer.
func (o Order) String() string {
	switch o {
	case OrderShuffled:
		return "shuffled"
	case OrderClustered:
		return "clustered"
	case OrderFeature:
		return "feature-ordered"
	}
	return fmt.Sprintf("order(%d)", int(o))
}

// Task identifies the learning problem a dataset poses.
type Task int

const (
	// TaskBinary is ±1 binary classification.
	TaskBinary Task = iota
	// TaskMulticlass is K-way classification with labels 0..K-1.
	TaskMulticlass
	// TaskRegression is real-valued regression.
	TaskRegression
)

// String implements fmt.Stringer.
func (t Task) String() string {
	switch t {
	case TaskBinary:
		return "binary"
	case TaskMulticlass:
		return "multiclass"
	case TaskRegression:
		return "regression"
	}
	return fmt.Sprintf("task(%d)", int(t))
}

// Dataset is an in-memory collection of training tuples plus metadata.
type Dataset struct {
	// Name labels the dataset in reports, e.g. "higgs-like".
	Name string
	// Task is the learning problem.
	Task Task
	// Features is the dimensionality of the feature space.
	Features int
	// Classes is the number of classes for TaskMulticlass (2 for binary).
	Classes int
	// Tuples holds the examples in their physical storage order.
	Tuples []Tuple
}

// Len returns the number of tuples.
func (d *Dataset) Len() int { return len(d.Tuples) }

// At returns a pointer to the i-th tuple in storage order.
func (d *Dataset) At(i int) *Tuple { return &d.Tuples[i] }

// ByteSize returns the total encoded size of all tuples.
func (d *Dataset) ByteSize() int64 {
	var n int64
	for i := range d.Tuples {
		n += int64(d.Tuples[i].EncodedSize())
	}
	return n
}

// AssignIDs renumbers tuple IDs 0..n-1 to match the current physical order.
func (d *Dataset) AssignIDs() {
	for i := range d.Tuples {
		d.Tuples[i].ID = int64(i)
	}
}

// Shuffle permutes the tuples uniformly at random using rng, then renumbers
// IDs to the new physical order.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.Tuples), func(i, j int) {
		d.Tuples[i], d.Tuples[j] = d.Tuples[j], d.Tuples[i]
	})
	d.AssignIDs()
}

// ClusterByLabel stably sorts the tuples by label (the paper's clustered
// order: all "-1" tuples before all "+1" tuples), then renumbers IDs.
func (d *Dataset) ClusterByLabel() {
	sort.SliceStable(d.Tuples, func(i, j int) bool {
		return d.Tuples[i].Label < d.Tuples[j].Label
	})
	d.AssignIDs()
}

// OrderByFeature stably sorts the tuples by the value of feature k
// (Section 7.4.3), then renumbers IDs.
func (d *Dataset) OrderByFeature(k int) {
	feat := func(t *Tuple) float64 {
		if !t.IsSparse() {
			if k < len(t.Dense) {
				return t.Dense[k]
			}
			return 0
		}
		for i, idx := range t.SparseIdx {
			if int(idx) == k {
				return t.SparseVal[i]
			}
		}
		return 0
	}
	sort.SliceStable(d.Tuples, func(i, j int) bool {
		return feat(&d.Tuples[i]) < feat(&d.Tuples[j])
	})
	d.AssignIDs()
}

// Split partitions the dataset into train and test subsets, holding out
// testFrac of the tuples chosen uniformly by rng. The physical order of the
// remaining tuples is preserved.
func (d *Dataset) Split(testFrac float64, rng *rand.Rand) (train, test *Dataset) {
	n := d.Len()
	nTest := int(float64(n) * testFrac)
	perm := rng.Perm(n)
	isTest := make([]bool, n)
	for _, i := range perm[:nTest] {
		isTest[i] = true
	}
	train = &Dataset{Name: d.Name, Task: d.Task, Features: d.Features, Classes: d.Classes}
	test = &Dataset{Name: d.Name + "-test", Task: d.Task, Features: d.Features, Classes: d.Classes}
	for i := range d.Tuples {
		if isTest[i] {
			test.Tuples = append(test.Tuples, d.Tuples[i])
		} else {
			train.Tuples = append(train.Tuples, d.Tuples[i])
		}
	}
	train.AssignIDs()
	test.AssignIDs()
	return train, test
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{Name: d.Name, Task: d.Task, Features: d.Features, Classes: d.Classes}
	c.Tuples = make([]Tuple, len(d.Tuples))
	for i := range d.Tuples {
		c.Tuples[i] = d.Tuples[i].Clone()
	}
	return c
}
