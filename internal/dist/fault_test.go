package dist

import (
	"errors"
	"testing"
	"time"

	"corgipile/internal/iosim"
	"corgipile/internal/obs"
)

func crashConfig(workers int, plan *FaultPlan) Config {
	cfg := baseConfig(workers)
	cfg.Faults = plan
	return cfg
}

func TestZeroCrashPlanBitIdentical(t *testing.T) {
	ds := clusteredDS(2000)
	base, err := Train(ds, baseConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := Train(ds, crashConfig(4, &FaultPlan{Seed: 3, CrashProb: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Points) != len(faulted.Points) {
		t.Fatal("epoch counts differ")
	}
	for i := range base.Points {
		if base.Points[i] != faulted.Points[i] {
			t.Fatalf("epoch %d diverged: %+v vs %+v", i, base.Points[i], faulted.Points[i])
		}
	}
	for i := range base.W {
		if base.W[i] != faulted.W[i] {
			t.Fatalf("weight %d diverged under disabled plan", i)
		}
	}
}

func TestCrashRunDeterministic(t *testing.T) {
	ds := clusteredDS(2000)
	plan := &FaultPlan{Seed: 11, CrashProb: 0.3}
	run := func() ([]float64, []float64, int) {
		res, err := Train(ds, crashConfig(4, plan))
		if err != nil {
			t.Fatal(err)
		}
		losses := make([]float64, len(res.Points))
		for i, p := range res.Points {
			losses[i] = p.AvgLoss
		}
		return losses, res.W, res.Faults.WorkerCrashes
	}
	l1, w1, c1 := run()
	l2, w2, c2 := run()
	if c1 == 0 {
		t.Fatal("30% crash prob over 4 workers x 10 epochs injected nothing")
	}
	if c1 != c2 {
		t.Fatalf("crash counts differ: %d vs %d", c1, c2)
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("loss trace diverged at epoch %d: %v vs %v", i, l1[i], l2[i])
		}
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("final weights diverged at %d", i)
		}
	}
}

func TestCrashedRunStillConverges(t *testing.T) {
	ds := clusteredDS(4000)
	cfg := crashConfig(4, &FaultPlan{Seed: 7, CrashProb: 0.25})
	cfg.Eval = ds
	res, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.WorkerCrashes == 0 {
		t.Fatal("expected at least one injected crash")
	}
	if acc := res.Final().TrainAcc; acc < 0.80 {
		t.Fatalf("crash-tolerant run accuracy %.3f < 0.80", acc)
	}
	// Crashed workers lose data for their epoch, so some epochs consume
	// fewer tuples — but never zero and never more than the dataset.
	for _, p := range res.Points {
		if p.Tuples <= 0 || p.Tuples > ds.Len() {
			t.Fatalf("epoch %d consumed %d tuples", p.Epoch, p.Tuples)
		}
	}
}

// TestGlobalBatchNeverShrinks: survivors absorb the dead workers' shares, so a
// crash shrinks neither the rounds nor the optimizer steps.
func TestGlobalBatchNeverShrinks(t *testing.T) {
	ds := clusteredDS(2000)
	cfg := crashConfig(4, &FaultPlan{Seed: 5, CrashProb: 0.4})
	cfg.Obs = obs.New()
	res, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.WorkerCrashes == 0 {
		t.Fatal("no crash injected; test exercises nothing")
	}
	// Every epoch takes ⌈tuples/GlobalBatch⌉ steps, whatever it lost: only
	// its last step is short.
	wantSteps := 0
	for _, p := range res.Points {
		wantSteps += (p.Tuples + cfg.GlobalBatch - 1) / cfg.GlobalBatch
	}
	if got := cfg.Obs.Counter(obs.SGDBatches); got != int64(wantSteps) {
		t.Fatalf("%d optimizer steps, want %d", got, wantSteps)
	}

	// On the stream itself: short rounds may appear only in the ramp-down
	// tail where workers exhaust their partitions (which happens fault-free
	// too), never from the crash point onward. Without redistribution every
	// round after a crash would be short and the "first short round -> epoch
	// end" span would cover half the epoch.
	s, err := newStream(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = s.cfg
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		s.startEpoch(epoch)
		var rounds []int
		for s.nextRound() {
			rounds = append(rounds, len(s.round))
		}
		for i, n := range rounds {
			if n > cfg.GlobalBatch {
				t.Fatalf("epoch %d round %d handed out %d tuples, above global batch %d", epoch, i, n, cfg.GlobalBatch)
			}
			if n < cfg.GlobalBatch {
				if tail := len(rounds) - i; tail > cfg.Workers {
					t.Fatalf("epoch %d: %d trailing short rounds (workers=%d); rounds shrank instead of redistributing",
						epoch, tail, cfg.Workers)
				}
				break
			}
		}
	}
	if s.crashes != res.Faults.WorkerCrashes {
		t.Fatalf("stream replay saw %d crashes, the run %d", s.crashes, res.Faults.WorkerCrashes)
	}
}

func TestDetectTimeoutChargedToClock(t *testing.T) {
	ds := clusteredDS(2000)
	run := func(timeout time.Duration) (time.Duration, int, []float64) {
		clock := iosim.NewClock()
		cfg := crashConfig(4, &FaultPlan{Seed: 11, CrashProb: 0.3, DetectTimeout: timeout})
		cfg.Clock = clock
		cfg.SyncCost = time.Millisecond
		res, err := Train(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		losses := make([]float64, len(res.Points))
		for i, p := range res.Points {
			losses[i] = p.AvgLoss
		}
		return clock.Now(), res.Faults.WorkerCrashes, losses
	}
	tShort, crashes, lShort := run(10 * time.Millisecond)
	tLong, crashes2, lLong := run(500 * time.Millisecond)
	if crashes == 0 || crashes != crashes2 {
		t.Fatalf("crash counts: %d vs %d", crashes, crashes2)
	}
	if want := time.Duration(crashes) * 490 * time.Millisecond; tLong-tShort != want {
		t.Fatalf("clock delta %v, want %d crashes x 490ms = %v", tLong-tShort, crashes, want)
	}
	// The timeout changes only the simulated clock, never the training.
	for i := range lShort {
		if lShort[i] != lLong[i] {
			t.Fatalf("loss trace depends on detect timeout at epoch %d", i)
		}
	}
}

func TestAllWorkersCrashed(t *testing.T) {
	ds := clusteredDS(1000)
	cfg := crashConfig(4, &FaultPlan{Seed: 2, CrashProb: 1})
	res, err := Train(ds, cfg)
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("all-crash run returned %v, want ErrWorkerLost", err)
	}
	if res == nil || res.Faults.WorkerCrashes != 4 {
		t.Fatalf("partial result must record the crashes: %+v", res)
	}
}

// TestLostRunChargesClock: a run that ends in ErrWorkerLost is not free — the
// aborted epoch's block reads, steps and detection timeouts reach the clock.
func TestLostRunChargesClock(t *testing.T) {
	ds := clusteredDS(1000)
	cfg := crashConfig(4, &FaultPlan{Seed: 2, CrashProb: 1, DetectTimeout: 50 * time.Millisecond})
	cfg.Clock = iosim.NewClock()
	cfg.BlockReadCost = 2 * time.Millisecond
	if _, err := Train(ds, cfg); !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("all-crash run returned %v, want ErrWorkerLost", err)
	}
	// Four detection timeouts, plus at least the first block each worker read.
	if got, want := cfg.Clock.Now(), 4*50*time.Millisecond+cfg.BlockReadCost; got < want {
		t.Fatalf("lost run charged %v to the clock, want at least %v", got, want)
	}
}

func TestMaxCrashesCap(t *testing.T) {
	ds := clusteredDS(2000)
	cfg := crashConfig(4, &FaultPlan{Seed: 11, CrashProb: 0.3, MaxCrashes: 1})
	_, err := Train(ds, cfg)
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("crash cap exceeded should return ErrWorkerLost, got %v", err)
	}
}

func TestCrashObsCounter(t *testing.T) {
	ds := clusteredDS(2000)
	reg := obs.New()
	cfg := crashConfig(4, &FaultPlan{Seed: 11, CrashProb: 0.3})
	cfg.Obs = reg
	res, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.DistWorkerCrashes); got != int64(res.Faults.WorkerCrashes) {
		t.Fatalf("obs crash counter %d, result says %d", got, res.Faults.WorkerCrashes)
	}
}

func TestWorkersRejoinNextEpoch(t *testing.T) {
	// With a crash schedule that only fires in epoch 0 (probabilistically,
	// via seed choice), later epochs must consume the full dataset again:
	// crashed workers rejoin at the next block redistribution.
	ds := clusteredDS(2000)
	cfg := crashConfig(4, &FaultPlan{Seed: 11, CrashProb: 0.3})
	res, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	full := 0
	for _, p := range res.Points {
		if p.Tuples == ds.Len() {
			full++
		} else {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("no epoch lost data; crash schedule fired nowhere")
	}
	if full == 0 {
		t.Fatal("no epoch ran clean; workers never rejoined")
	}
}
