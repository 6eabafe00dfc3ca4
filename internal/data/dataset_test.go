package data

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func makeDataset(n int) *Dataset {
	ds := &Dataset{Name: "t", Task: TaskBinary, Features: 2, Classes: 2}
	for i := 0; i < n; i++ {
		label := -1.0
		if i%2 == 1 {
			label = 1.0
		}
		ds.Tuples = append(ds.Tuples, Tuple{ID: int64(i), Label: label, Dense: []float64{float64(i), 1}})
	}
	return ds
}

// LabelCounts returns a histogram of labels, keyed by label value.
func (d *Dataset) LabelCounts() map[float64]int {
	m := make(map[float64]int)
	for i := range d.Tuples {
		m[d.Tuples[i].Label]++
	}
	return m
}

func TestShuffleIsPermutation(t *testing.T) {
	ds := makeDataset(100)
	vals := map[float64]bool{}
	for i := range ds.Tuples {
		vals[ds.Tuples[i].Dense[0]] = true
	}
	ds.Shuffle(rand.New(rand.NewSource(1)))
	if ds.Len() != 100 {
		t.Fatalf("Len = %d after shuffle", ds.Len())
	}
	for i := range ds.Tuples {
		if !vals[ds.Tuples[i].Dense[0]] {
			t.Fatal("shuffle lost or invented a tuple")
		}
		if ds.Tuples[i].ID != int64(i) {
			t.Fatal("shuffle did not renumber IDs")
		}
	}
}

func TestShuffleDeterministic(t *testing.T) {
	a, b := makeDataset(50), makeDataset(50)
	a.Shuffle(rand.New(rand.NewSource(7)))
	b.Shuffle(rand.New(rand.NewSource(7)))
	for i := range a.Tuples {
		if a.Tuples[i].Dense[0] != b.Tuples[i].Dense[0] {
			t.Fatal("same-seed shuffles differ")
		}
	}
}

func TestClusterByLabel(t *testing.T) {
	ds := makeDataset(100)
	ds.Shuffle(rand.New(rand.NewSource(2)))
	ds.ClusterByLabel()
	for i := 1; i < ds.Len(); i++ {
		if ds.Tuples[i].Label < ds.Tuples[i-1].Label {
			t.Fatal("labels not sorted after ClusterByLabel")
		}
	}
	if ds.Tuples[0].Label != -1 || ds.Tuples[ds.Len()-1].Label != 1 {
		t.Fatal("clustered order should put -1 first, +1 last")
	}
}

func TestOrderByFeature(t *testing.T) {
	ds := makeDataset(50)
	ds.Shuffle(rand.New(rand.NewSource(3)))
	ds.OrderByFeature(0)
	for i := 1; i < ds.Len(); i++ {
		if ds.Tuples[i].Dense[0] < ds.Tuples[i-1].Dense[0] {
			t.Fatal("feature 0 not sorted")
		}
	}
}

func TestOrderByFeatureSparse(t *testing.T) {
	ds := &Dataset{Features: 10}
	ds.Tuples = []Tuple{
		sparseTuple([]int32{3}, []float64{5}),
		sparseTuple([]int32{3}, []float64{-1}),
		sparseTuple([]int32{2}, []float64{9}), // feature 3 absent → 0
	}
	ds.OrderByFeature(3)
	got := []float64{}
	for i := range ds.Tuples {
		v := 0.0
		for j, idx := range ds.Tuples[i].SparseIdx {
			if idx == 3 {
				v = ds.Tuples[i].SparseVal[j]
			}
		}
		got = append(got, v)
	}
	if got[0] != -1 || got[1] != 0 || got[2] != 5 {
		t.Fatalf("sparse feature order = %v, want [-1 0 5]", got)
	}
}

func TestSplitSizesAndDisjoint(t *testing.T) {
	ds := makeDataset(200)
	train, test := ds.Split(0.25, rand.New(rand.NewSource(4)))
	if test.Len() != 50 || train.Len() != 150 {
		t.Fatalf("split sizes = %d/%d, want 150/50", train.Len(), test.Len())
	}
	seen := map[float64]bool{}
	for i := range train.Tuples {
		seen[train.Tuples[i].Dense[0]] = true
	}
	for i := range test.Tuples {
		if seen[test.Tuples[i].Dense[0]] {
			t.Fatal("train and test overlap")
		}
	}
}

func TestSplitPreservesOrder(t *testing.T) {
	ds := makeDataset(100)
	ds.ClusterByLabel()
	train, _ := ds.Split(0.2, rand.New(rand.NewSource(5)))
	for i := 1; i < train.Len(); i++ {
		if train.Tuples[i].Label < train.Tuples[i-1].Label {
			t.Fatal("split broke the clustered order of the train set")
		}
	}
}

func TestCloneDataset(t *testing.T) {
	ds := makeDataset(10)
	c := ds.Clone()
	c.Tuples[0].Dense[0] = 999
	if ds.Tuples[0].Dense[0] == 999 {
		t.Fatal("dataset Clone shares tuple storage")
	}
}

func TestLabelCounts(t *testing.T) {
	ds := makeDataset(10)
	m := ds.LabelCounts()
	if m[-1] != 5 || m[1] != 5 {
		t.Fatalf("LabelCounts = %v", m)
	}
}

func TestByteSize(t *testing.T) {
	ds := makeDataset(3)
	want := int64(3 * (21 + 16))
	if got := ds.ByteSize(); got != want {
		t.Fatalf("ByteSize = %d, want %d", got, want)
	}
}

func TestOrderStrings(t *testing.T) {
	if OrderShuffled.String() != "shuffled" || OrderClustered.String() != "clustered" || OrderFeature.String() != "feature-ordered" {
		t.Fatal("Order.String values wrong")
	}
	if TaskBinary.String() != "binary" || TaskMulticlass.String() != "multiclass" || TaskRegression.String() != "regression" {
		t.Fatal("Task.String values wrong")
	}
}

// Property: Split never loses or duplicates tuples for any fraction.
func TestSplitConservesProperty(t *testing.T) {
	f := func(n uint8, frac float64) bool {
		if frac < 0 || frac > 1 {
			return true
		}
		size := int(n%100) + 2
		ds := makeDataset(size)
		train, test := ds.Split(frac, rand.New(rand.NewSource(int64(n))))
		return train.Len()+test.Len() == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
