package corgipile

import (
	"runtime"
	"testing"
	"time"
)

// faultCfg is the shared baseline config for the end-to-end fault tests:
// small blocks so the table spans many blocks, a fixed seed so every run is
// reproducible.
func faultCfg() TrainConfig {
	return TrainConfig{
		Model:     "svm",
		Epochs:    4,
		Device:    "ssd",
		BlockSize: 32 << 10,
		Seed:      1,
	}
}

func sameWeights(t *testing.T, a, b []float64, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: weight dims differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: weight %d diverged: %v vs %v", label, i, a[i], b[i])
		}
	}
}

func TestZeroFaultPlanBitIdentical(t *testing.T) {
	ds := Synthetic("susy", 0.1, OrderClustered)
	base, baseClock, err := TrainOnDevice(ds, faultCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultCfg()
	cfg.Faults = &FaultPlan{Seed: 9} // no probabilities set: injects nothing
	faulted, faultClock, err := TrainOnDevice(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameWeights(t, base.W, faulted.W, "zero plan")
	if baseClock.Now() != faultClock.Now() {
		t.Fatalf("zero plan changed simulated time: %v vs %v",
			baseClock.Now(), faultClock.Now())
	}
	if faulted.Faults.Degraded() {
		t.Fatalf("zero plan reported faults: %+v", faulted.Faults)
	}
}

func TestTransientStormWithinBudgetSameWeights(t *testing.T) {
	ds := Synthetic("susy", 0.1, OrderClustered)
	base, baseClock, err := TrainOnDevice(ds, faultCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultCfg()
	cfg.Faults = &FaultPlan{Seed: 9, ReadErrorProb: 0.05, ErrorLatency: 2 * time.Millisecond}
	cfg.Retries = 4
	stormed, stormClock, err := TrainOnDevice(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stormed.Faults.TransientErrors == 0 {
		t.Fatal("5% read-error storm injected nothing")
	}
	// Retries absorb every transient error, so training sees the exact same
	// tuple stream: identical weights, only a slower simulated clock.
	sameWeights(t, base.W, stormed.W, "transient storm")
	if stormClock.Now() <= baseClock.Now() {
		t.Fatalf("storm run not slower: %v vs clean %v", stormClock.Now(), baseClock.Now())
	}
}

// A mini-batch run under a fault storm gives the same faults and weights at
// GOMAXPROCS 1 and 4: training starts no goroutine of its own.
func TestFaultRunDeterministicAcrossProcs(t *testing.T) {
	ds := Synthetic("susy", 0.1, OrderClustered)
	run := func(procs int) *Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg := faultCfg()
		cfg.BatchSize = 32
		cfg.Faults = &FaultPlan{Seed: 9, ReadErrorProb: 0.05}
		cfg.Retries = 4
		res, _, err := TrainOnDevice(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	p1 := run(1)
	p4 := run(4)
	if p1.Faults.TransientErrors != p4.Faults.TransientErrors {
		t.Fatalf("fault counts differ across Procs: %d vs %d",
			p1.Faults.TransientErrors, p4.Faults.TransientErrors)
	}
	sameWeights(t, p1.W, p4.W, "procs 1 vs 4")
}

// Losing one block must not wreck convergence. The comparison needs a
// converged last iterate to mean anything: at the default constant step
// (0.05) the final accuracy of a clean susy run swings between 0.50 and 0.74
// with the seed alone, so the runs here decay the step (0.01, halved per
// epoch) over 5 000 tuples, where clean runs land within 0.01 of each other
// across seeds. It runs with profiling off and on.
func TestSkipCorruptEndToEnd(t *testing.T) {
	ds := Synthetic("susy", 0.5, OrderClustered)
	for _, explain := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := faultCfg()
			cfg.Epochs, cfg.LearningRate, cfg.Decay = 6, 0.01, 0.5
			cfg.Seed, cfg.Explain = seed, explain
			clean, _, err := TrainOnDevice(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = &FaultPlan{Seed: 9, CorruptBlocks: []int{2}}
			cfg.OnCorrupt = "skip"
			cfg.MaxSkipFraction = 0.25
			res, _, err := TrainOnDevice(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Faults.Degraded() {
				t.Fatal("corrupt block not recorded in Result.Faults")
			}
			if len(res.Faults.SkippedBlocks) != 1 || res.Faults.SkippedBlocks[0] != 2 {
				t.Fatalf("skipped blocks = %v, want [2]", res.Faults.SkippedBlocks)
			}
			if res.Faults.SkippedTuples <= 0 {
				t.Fatal("quarantine recorded no lost tuples")
			}
			if got, want := res.Final().TrainAcc, clean.Final().TrainAcc; got < want-0.02 {
				t.Fatalf("explain=%v seed %d: degraded run accuracy %.3f, clean run %.3f", explain, seed, got, want)
			}
		}
	}
}

func TestFailFastOnCorruptByDefault(t *testing.T) {
	ds := Synthetic("susy", 0.1, OrderClustered)
	cfg := faultCfg()
	cfg.Faults = &FaultPlan{Seed: 9, CorruptBlocks: []int{2}}
	cfg.Retries = 2 // resilience enabled, but policy stays fail-fast
	if _, _, err := TrainOnDevice(ds, cfg); err == nil {
		t.Fatal("fail-fast run trained through a corrupt block")
	}
}
