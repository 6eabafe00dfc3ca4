package ml

import (
	"math"
	"testing"
)

func TestSGDStep(t *testing.T) {
	opt := NewSGD(0.1)
	opt.Reset(3)
	w := []float64{1, 1, 1}
	opt.Step(w, []int32{0, 2}, []float64{1, -2})
	if w[0] != 0.9 || w[1] != 1 || math.Abs(w[2]-1.2) > 1e-12 {
		t.Fatalf("SGD step wrong: %v", w)
	}
}

func TestSGDDecay(t *testing.T) {
	opt := NewSGD(1)
	opt.Reset(1)
	opt.EndEpoch()
	if math.Abs(opt.LR()-0.95) > 1e-12 {
		t.Fatalf("lr after one epoch = %v, want 0.95", opt.LR())
	}
	opt.EndEpoch()
	if math.Abs(opt.LR()-0.9025) > 1e-12 {
		t.Fatalf("lr after two epochs = %v, want 0.9025", opt.LR())
	}
	opt.Reset(1)
	if opt.LR() != 1 {
		t.Fatal("Reset must restore initial lr")
	}
}

func TestSGDZeroDecayMeansNone(t *testing.T) {
	opt := &SGD{LR0: 0.5}
	opt.Reset(1)
	opt.EndEpoch()
	if opt.LR() != 0.5 {
		t.Fatalf("zero Decay should keep lr constant, got %v", opt.LR())
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = ½‖w − c‖²; gradient w − c.
	c := []float64{3, -2}
	opt := NewAdam(0.1)
	opt.Reset(2)
	w := []float64{0, 0}
	for i := 0; i < 2000; i++ {
		g := []float64{w[0] - c[0], w[1] - c[1]}
		opt.Step(w, []int32{0, 1}, g)
	}
	if math.Abs(w[0]-3) > 0.05 || math.Abs(w[1]+2) > 0.05 {
		t.Fatalf("Adam did not converge: %v", w)
	}
}

func TestAdamFirstStepSize(t *testing.T) {
	// The very first Adam step has magnitude ≈ lr regardless of gradient
	// scale (bias-corrected moments cancel).
	for _, g := range []float64{1e-4, 1, 1e4} {
		opt := NewAdam(0.01)
		opt.Reset(1)
		w := []float64{0}
		opt.Step(w, []int32{0}, []float64{g})
		if math.Abs(math.Abs(w[0])-0.01) > 1e-4 {
			t.Fatalf("first Adam step for g=%v moved %v, want ~0.01", g, w[0])
		}
	}
}

func TestAdamLazyInitOnFirstStep(t *testing.T) {
	opt := NewAdam(0.1)
	w := []float64{0, 0}
	opt.Step(w, []int32{1}, []float64{1}) // must not panic without Reset
	if w[1] == 0 {
		t.Fatal("lazy-initialized Adam did not update")
	}
	if w[0] != 0 {
		t.Fatal("untouched coordinate moved")
	}
}

// TestAdamDecay: Adam does not decay its learning rate between epochs (the
// decay setting is SGD's).
func TestAdamDecay(t *testing.T) {
	opt := NewAdam(1)
	opt.Reset(1)
	opt.EndEpoch()
	if opt.LR() != 1 {
		t.Fatalf("Adam decay: lr = %v, want 1", opt.LR())
	}
}

func TestNewOptimizer(t *testing.T) {
	for _, name := range []string{"sgd", "adam", ""} {
		opt, err := NewOptimizer(name, 0.1)
		if err != nil || opt == nil {
			t.Fatalf("NewOptimizer(%q) failed: %v", name, err)
		}
	}
	if _, err := NewOptimizer("lbfgs", 0.1); err == nil {
		t.Fatal("unknown optimizer must error")
	}
}

func TestOptimizerNames(t *testing.T) {
	if NewSGD(1).Name() != "sgd" || NewAdam(1).Name() != "adam" {
		t.Fatal("optimizer names wrong")
	}
}
