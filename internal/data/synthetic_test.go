package data

import (
	"math"
	"testing"
)

func TestSyntheticBinaryShape(t *testing.T) {
	ds := SyntheticBinary(SyntheticConfig{Tuples: 500, Features: 10, Order: OrderClustered, Seed: 1})
	if ds.Len() != 500 || ds.Features != 10 || ds.Task != TaskBinary {
		t.Fatalf("shape wrong: len=%d features=%d task=%v", ds.Len(), ds.Features, ds.Task)
	}
	counts := ds.LabelCounts()
	if counts[-1] != 250 || counts[1] != 250 {
		t.Fatalf("label balance = %v, want 250/250", counts)
	}
}

func TestSyntheticBinaryClusteredOrder(t *testing.T) {
	ds := SyntheticBinary(SyntheticConfig{Tuples: 100, Features: 4, Order: OrderClustered, Seed: 2})
	for i := 0; i < 50; i++ {
		if ds.Tuples[i].Label != -1 {
			t.Fatalf("tuple %d label = %v, want -1 (clustered)", i, ds.Tuples[i].Label)
		}
	}
	for i := 50; i < 100; i++ {
		if ds.Tuples[i].Label != 1 {
			t.Fatalf("tuple %d label = %v, want +1 (clustered)", i, ds.Tuples[i].Label)
		}
	}
}

func TestSyntheticBinaryShuffledOrderMixesLabels(t *testing.T) {
	ds := SyntheticBinary(SyntheticConfig{Tuples: 1000, Features: 4, Order: OrderShuffled, Seed: 3})
	// In the first 100 tuples both labels must appear.
	var neg, pos int
	for i := 0; i < 100; i++ {
		if ds.Tuples[i].Label < 0 {
			neg++
		} else {
			pos++
		}
	}
	if neg == 0 || pos == 0 {
		t.Fatalf("shuffled prefix is single-class: %d/%d", neg, pos)
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	cfg := SyntheticConfig{Tuples: 200, Features: 8, Order: OrderClustered, Seed: 42}
	a, b := SyntheticBinary(cfg), SyntheticBinary(cfg)
	for i := range a.Tuples {
		for j := range a.Tuples[i].Dense {
			if a.Tuples[i].Dense[j] != b.Tuples[i].Dense[j] {
				t.Fatal("same-seed generation differs")
			}
		}
	}
}

func TestSyntheticSparse(t *testing.T) {
	ds := SyntheticBinary(SyntheticConfig{
		Tuples: 100, Features: 1000, Sparse: true, NNZ: 16, Order: OrderClustered, Seed: 4})
	for i := range ds.Tuples {
		tp := &ds.Tuples[i]
		if !tp.IsSparse() {
			t.Fatal("expected sparse tuples")
		}
		if tp.NNZ() != 16 {
			t.Fatalf("NNZ = %d, want 16", tp.NNZ())
		}
		for j := 1; j < len(tp.SparseIdx); j++ {
			if tp.SparseIdx[j] <= tp.SparseIdx[j-1] {
				t.Fatal("sparse indices not strictly increasing")
			}
		}
	}
}

func TestSyntheticMulticlass(t *testing.T) {
	ds := SyntheticMulticlass(SyntheticConfig{
		Tuples: 300, Features: 16, Classes: 3, Order: OrderClustered, Seed: 5})
	if ds.Classes != 3 || ds.Task != TaskMulticlass {
		t.Fatalf("classes=%d task=%v", ds.Classes, ds.Task)
	}
	counts := ds.LabelCounts()
	for k := 0.0; k < 3; k++ {
		if counts[k] != 100 {
			t.Fatalf("class %v count = %d, want 100", k, counts[k])
		}
	}
	// Clustered: class index non-decreasing.
	for i := 1; i < ds.Len(); i++ {
		if ds.Tuples[i].Label < ds.Tuples[i-1].Label {
			t.Fatal("multiclass clustered order broken")
		}
	}
}

func TestSyntheticRegression(t *testing.T) {
	ds := SyntheticRegression(SyntheticConfig{Tuples: 200, Features: 5, Noise: 0.1, Order: OrderClustered, Seed: 6})
	if ds.Task != TaskRegression {
		t.Fatalf("task = %v", ds.Task)
	}
	for i := 1; i < ds.Len(); i++ {
		if ds.Tuples[i].Label < ds.Tuples[i-1].Label {
			t.Fatal("regression clustered order should sort by target")
		}
	}
	// Targets must not be constant.
	if ds.Tuples[0].Label == ds.Tuples[ds.Len()-1].Label {
		t.Fatal("regression targets constant")
	}
}

func TestSyntheticFeatureOrder(t *testing.T) {
	ds := SyntheticBinary(SyntheticConfig{
		Tuples: 100, Features: 6, Order: OrderFeature, Seed: 7})
	for i := 1; i < ds.Len(); i++ {
		if ds.Tuples[i].Dense[0] < ds.Tuples[i-1].Dense[0] {
			t.Fatal("feature 0 not sorted")
		}
	}
}

func TestSyntheticSeparationControlsDistance(t *testing.T) {
	near := SyntheticBinary(SyntheticConfig{Tuples: 400, Features: 10, Separation: 0.5, Order: OrderClustered, Seed: 8})
	far := SyntheticBinary(SyntheticConfig{Tuples: 400, Features: 10, Separation: 8, Order: OrderClustered, Seed: 8})
	dist := func(ds *Dataset) float64 {
		mean := func(lo, hi int) []float64 {
			m := make([]float64, ds.Features)
			for i := lo; i < hi; i++ {
				for j, v := range ds.Tuples[i].Dense {
					m[j] += v
				}
			}
			for j := range m {
				m[j] /= float64(hi - lo)
			}
			return m
		}
		a, b := mean(0, 200), mean(200, 400)
		var d float64
		for j := range a {
			d += (a[j] - b[j]) * (a[j] - b[j])
		}
		return math.Sqrt(d)
	}
	if dist(far) <= dist(near) {
		t.Fatal("larger Separation should move class means apart")
	}
}

func TestGenerateWorkloads(t *testing.T) {
	for name := range Workloads {
		ds := Generate(name, 0.02, OrderClustered)
		if ds.Len() < 50 {
			t.Errorf("%s: too few tuples (%d)", name, ds.Len())
		}
		if ds.Name == "" || ds.Features <= 0 {
			t.Errorf("%s: bad metadata %q/%d", name, ds.Name, ds.Features)
		}
	}
}

func TestGenerateUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Generate with unknown name should panic")
		}
	}()
	Generate("no-such-dataset", 1, OrderClustered)
}

func TestGLMDatasetsRegistered(t *testing.T) {
	for _, name := range GLMDatasets {
		if _, ok := Workloads[name]; !ok {
			t.Fatalf("GLM dataset %q not in Workloads", name)
		}
	}
}

func TestSyntheticDriftShape(t *testing.T) {
	ds := SyntheticDrift(SyntheticConfig{Tuples: 1000, Features: 10, Separation: 2, Order: OrderClustered, Seed: 20})
	if ds.Len() != 1000 || ds.Task != TaskBinary {
		t.Fatalf("shape wrong: %d/%v", ds.Len(), ds.Task)
	}
	counts := ds.LabelCounts()
	if counts[-1] < 400 || counts[1] < 400 {
		t.Fatalf("labels unbalanced: %v", counts)
	}
}

func TestSyntheticDriftRotatesBoundary(t *testing.T) {
	// The early and late class-mean directions must differ: measure the
	// mean positive-class vector of the first and last 10%.
	ds := SyntheticDrift(SyntheticConfig{Tuples: 5000, Features: 8, Separation: 3, Noise: 0.5, Order: OrderClustered, Seed: 21})
	meanPos := func(lo, hi int) []float64 {
		m := make([]float64, ds.Features)
		n := 0
		for i := lo; i < hi; i++ {
			if ds.Tuples[i].Label > 0 {
				for j, v := range ds.Tuples[i].Dense {
					m[j] += v
				}
				n++
			}
		}
		for j := range m {
			m[j] /= float64(n)
		}
		return m
	}
	early, late := meanPos(0, 500), meanPos(4500, 5000)
	var dot, ne, nl float64
	for j := range early {
		dot += early[j] * late[j]
		ne += early[j] * early[j]
		nl += late[j] * late[j]
	}
	cos := dot / math.Sqrt(ne*nl)
	if cos > 0.95 {
		t.Fatalf("boundary did not drift: cos(early, late) = %.3f", cos)
	}
}

func TestSyntheticDriftShuffledControl(t *testing.T) {
	ds := SyntheticDrift(SyntheticConfig{Tuples: 1000, Features: 4, Order: OrderShuffled, Seed: 22})
	// Shuffled: ids renumbered; every tuple present.
	for i := range ds.Tuples {
		if ds.Tuples[i].ID != int64(i) {
			t.Fatal("shuffled drift data should renumber ids")
		}
	}
}
