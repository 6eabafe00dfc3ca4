package data

import (
	"fmt"
	"math"
	"math/rand"
)

// SyntheticConfig parameterizes the synthetic workload generators. The
// generators stand in for the paper's datasets (Table 2): Gaussian-mixture
// classification and linear-plus-noise regression data whose *ordering*
// (clustered / shuffled / feature-ordered) reproduces the pathologies the
// paper studies.
type SyntheticConfig struct {
	// Name labels the generated dataset.
	Name string
	// Tuples is the number of examples to generate.
	Tuples int
	// Features is the dimensionality.
	Features int
	// Classes is the number of classes (2 for binary; ignored for
	// regression).
	Classes int
	// Sparse generates sparse tuples with NNZ non-zeros each.
	Sparse bool
	// NNZ is the number of non-zero features per sparse tuple.
	NNZ int
	// Separation scales the distance between class means; larger is more
	// linearly separable. Defaults to 2.
	Separation float64
	// Noise is the per-feature Gaussian noise standard deviation.
	// Defaults to 1.
	Noise float64
	// Order is the physical tuple order to produce; OrderFeature sorts by
	// feature 0.
	Order Order
	// Seed seeds the generator; equal seeds give identical datasets.
	Seed int64
}

func (c SyntheticConfig) withDefaults() SyntheticConfig {
	if c.Classes < 2 {
		c.Classes = 2
	}
	if c.Separation == 0 {
		c.Separation = 2
	}
	if c.Noise == 0 {
		c.Noise = 1
	}
	if c.Sparse && c.NNZ == 0 {
		c.NNZ = 32
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("synth-%dx%d", c.Tuples, c.Features)
	}
	return c
}

// SyntheticBinary generates a two-class dataset: class means are drawn on a
// sphere of radius Separation and examples are mean + Gaussian noise.
// Labels are ±1. The returned dataset is in the order requested by
// cfg.Order.
func SyntheticBinary(cfg SyntheticConfig) *Dataset {
	cfg = cfg.withDefaults()
	cfg.Classes = 2
	ds := syntheticClassification(cfg)
	// Map class indices {0,1} to labels {-1,+1}.
	for i := range ds.Tuples {
		if ds.Tuples[i].Label == 0 {
			ds.Tuples[i].Label = -1
		}
	}
	ds.Task = TaskBinary
	applyOrder(ds, cfg)
	return ds
}

// SyntheticMulticlass generates a K-class dataset with labels 0..K-1 in the
// order requested by cfg.Order. It models the image/text classification
// workloads (cifar-10-like, yelp-like, imagenet-like).
func SyntheticMulticlass(cfg SyntheticConfig) *Dataset {
	cfg = cfg.withDefaults()
	ds := syntheticClassification(cfg)
	ds.Task = TaskMulticlass
	applyOrder(ds, cfg)
	return ds
}

// syntheticClassification generates class-mean + noise examples with labels
// equal to the class index, physically grouped by class (clustered order)
// before applyOrder rearranges them.
func syntheticClassification(cfg SyntheticConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	means := make([][]float64, cfg.Classes)
	for k := range means {
		m := make([]float64, cfg.Features)
		var norm float64
		for j := range m {
			m[j] = rng.NormFloat64()
			norm += m[j] * m[j]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			norm = 1
		}
		for j := range m {
			m[j] = m[j] / norm * cfg.Separation
		}
		means[k] = m
	}

	ds := &Dataset{
		Name:     cfg.Name,
		Task:     TaskMulticlass,
		Features: cfg.Features,
		Classes:  cfg.Classes,
		Tuples:   make([]Tuple, 0, cfg.Tuples),
	}
	for i := 0; i < cfg.Tuples; i++ {
		k := i * cfg.Classes / cfg.Tuples // grouped by class
		t := Tuple{ID: int64(i), Label: float64(k)}
		if cfg.Sparse {
			t.SparseIdx, t.SparseVal = sparseFeatures(rng, cfg, means[k])
		} else {
			x := make([]float64, cfg.Features)
			for j := range x {
				x[j] = means[k][j] + rng.NormFloat64()*cfg.Noise
			}
			t.Dense = x
		}
		ds.Tuples = append(ds.Tuples, t)
	}
	return ds
}

// sparseFeatures draws NNZ distinct dimensions and emits mean+noise values
// there, in increasing index order.
func sparseFeatures(rng *rand.Rand, cfg SyntheticConfig, mean []float64) ([]int32, []float64) {
	nnz := cfg.NNZ
	if nnz > cfg.Features {
		nnz = cfg.Features
	}
	seen := make(map[int32]bool, nnz)
	idx := make([]int32, 0, nnz)
	for len(idx) < nnz {
		j := int32(rng.Intn(cfg.Features))
		if !seen[j] {
			seen[j] = true
			idx = append(idx, j)
		}
	}
	// Sort the indices (insertion sort: nnz is small).
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	val := make([]float64, nnz)
	for i, j := range idx {
		val[i] = mean[j] + rng.NormFloat64()*cfg.Noise
	}
	return idx, val
}

// SyntheticRegression generates a linear regression dataset
// y = ⟨w*, x⟩ + noise with x ~ N(0, I), in the order requested by cfg.Order
// (clustered means sorted by target value, modelling a timestamp-ordered
// continuous dataset like YearPredictionMSD).
func SyntheticRegression(cfg SyntheticConfig) *Dataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	wStar := make([]float64, cfg.Features)
	for j := range wStar {
		wStar[j] = rng.NormFloat64()
	}
	ds := &Dataset{
		Name:     cfg.Name,
		Task:     TaskRegression,
		Features: cfg.Features,
		Classes:  0,
		Tuples:   make([]Tuple, 0, cfg.Tuples),
	}
	for i := 0; i < cfg.Tuples; i++ {
		x := make([]float64, cfg.Features)
		var y float64
		for j := range x {
			x[j] = rng.NormFloat64()
			y += wStar[j] * x[j]
		}
		y += rng.NormFloat64() * cfg.Noise
		ds.Tuples = append(ds.Tuples, Tuple{ID: int64(i), Label: y, Dense: x})
	}
	applyOrder(ds, cfg)
	return ds
}

// applyOrder lays ds out in cfg.Order and renumbers its IDs.
func applyOrder(ds *Dataset, cfg SyntheticConfig) {
	switch cfg.Order {
	case OrderClustered:
		ds.ClusterByLabel()
	case OrderShuffled:
		ds.Shuffle(rand.New(rand.NewSource(cfg.Seed + 1)))
	case OrderFeature:
		ds.OrderByFeature(0)
	}
	ds.AssignIDs()
}

// SyntheticDrift generates a binary dataset whose decision boundary rotates
// along the storage order — data "naturally ordered by timestamp" under
// concept drift, the other clustered-order source the paper's introduction
// motivates. Tuple i's class-mean direction interpolates between a start
// and an end direction, so a sequential scan sees a non-stationary
// distribution while a shuffled order sees the mixture.
//
// Pass Order: OrderClustered to keep the timestamp (drift) order;
// OrderShuffled (the default) produces the shuffled control arm.
func SyntheticDrift(cfg SyntheticConfig) *Dataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	dirA := randomUnit(rng, cfg.Features)
	// The end direction is dirA rotated by 120° in a random plane: far
	// enough that a single static boundary cannot fit both ends well, while
	// the concept mixture stays learnable.
	orth := randomUnit(rng, cfg.Features)
	var dot float64
	for j := range orth {
		dot += orth[j] * dirA[j]
	}
	var norm float64
	for j := range orth {
		orth[j] -= dot * dirA[j]
		norm += orth[j] * orth[j]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		norm = 1
	}
	const angle = 2 * math.Pi / 3
	dirB := make([]float64, cfg.Features)
	for j := range dirB {
		dirB[j] = math.Cos(angle)*dirA[j] + math.Sin(angle)*orth[j]/norm
	}

	ds := &Dataset{
		Name:     cfg.Name,
		Task:     TaskBinary,
		Features: cfg.Features,
		Classes:  2,
		Tuples:   make([]Tuple, 0, cfg.Tuples),
	}
	for i := 0; i < cfg.Tuples; i++ {
		frac := float64(i) / float64(cfg.Tuples)
		label := 1.0
		if rng.Intn(2) == 0 {
			label = -1.0
		}
		x := make([]float64, cfg.Features)
		for j := range x {
			mean := (1-frac)*dirA[j] + frac*dirB[j]
			x[j] = label*mean*cfg.Separation + rng.NormFloat64()*cfg.Noise
		}
		ds.Tuples = append(ds.Tuples, Tuple{ID: int64(i), Label: label, Dense: x})
	}
	// Drift IS the storage order; OrderShuffled destroys it for the
	// control arm.
	if cfg.Order == OrderShuffled {
		ds.Shuffle(rand.New(rand.NewSource(cfg.Seed + 1)))
	}
	ds.AssignIDs()
	return ds
}

// randomUnit draws a uniformly random unit vector.
func randomUnit(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	var norm float64
	for j := range v {
		v[j] = rng.NormFloat64()
		norm += v[j] * v[j]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		norm = 1
	}
	for j := range v {
		v[j] /= norm
	}
	return v
}
