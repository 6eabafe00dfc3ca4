package executor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"corgipile/internal/core"
	"corgipile/internal/data"
	"corgipile/internal/dist"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
	"corgipile/internal/shuffle"
	"corgipile/internal/storage"
)

// engines are the entry points over the shared epoch driver: core.Run
// pulling from a shuffle.Strategy (the reference the core goldens are
// captured through), and the executor's SGD operator pulling from its child
// with profiling off (every TRAIN) and on (Explain, EXPLAIN ANALYZE). Tests
// that pin the driver iterate all three.
var engines = []string{"core.Run", "executor", "executor+profile"}

// engineRun is one training run through one entry point, on its own
// device, clock and registry.
type engineRun struct {
	kind   shuffle.Kind
	tuples int
	cfg    core.RunConfig // Epochs, BatchSize, ...; learner, clock and source are filled in
	double bool           // DoubleBuffer
	attach bool           // Obs + Diag + Feed
	tap    func()         // called per streamed tuple when non-nil
	// wrap, when non-nil, replaces the table source (fault injection).
	wrap func(shuffle.Source, *iosim.Clock) shuffle.Source
	// faults is injected into the device (zero: none).
	faults iosim.FaultPlan
}

type engineOut struct {
	res *core.Result
	err error
	now time.Duration // device clock after the run
	reg *obs.Registry
}

// tapStrategy calls tap for every tuple a strategy streams.
type tapStrategy struct {
	shuffle.Strategy
	tap func()
}

type tapIter struct {
	shuffle.Iterator
	tap func()
}

func (s tapStrategy) StartEpoch(e int) (shuffle.Iterator, error) {
	it, err := s.Strategy.StartEpoch(e)
	if err != nil {
		return nil, err
	}
	return tapIter{it, s.tap}, nil
}

func (it tapIter) Next() (*data.Tuple, bool) {
	t, ok := it.Iterator.Next()
	if ok {
		it.tap()
	}
	return t, ok
}

func (r engineRun) run(t *testing.T, engine string) engineOut {
	t.Helper()
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: r.tuples, Features: 8, Separation: 1.5, Noise: 1.0,
		Order: data.OrderClustered, Seed: 23})
	clock := iosim.NewClock()
	dev := iosim.NewDevice(iosim.HDD, clock)
	if r.faults.Enabled() {
		dev.WithFaults(r.faults)
	}
	tab, err := storage.Build(dev, ds, storage.Options{BlockSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.cfg
	cfg.Model, cfg.Opt = ml.SVM{}, ml.NewSGD(0.05)
	cfg.Features, cfg.Clock, cfg.TrainEval = ds.Features, clock, ds
	out := engineOut{}
	if r.attach {
		out.reg = obs.New().WithClock(clock)
		dev.WithObs(out.reg)
		cfg.Obs, cfg.Diag, cfg.Feed = out.reg, true, obs.NewRunFeed()
		defer cfg.Feed.Close()
	}
	const seed, frac = 7, 0.1
	var src shuffle.Source = shuffle.TableSource(tab)
	if r.wrap != nil {
		src = r.wrap(src, clock)
	}
	if engine != "core.Run" {
		pc := PlanConfig{Shuffle: r.kind, BufferFraction: frac, DoubleBuffer: r.double, Seed: seed,
			Profile: engine == "executor+profile", SGD: cfg}
		if r.tap != nil {
			pc.Filter = func(*data.Tuple) bool { r.tap(); return true }
		}
		op, err := BuildSGDPlan(src, pc)
		if err != nil {
			t.Fatal(err)
		}
		out.res, out.err = op.RunResult()
	} else {
		st, err := shuffle.New(r.kind, src, shuffle.Options{BufferFraction: frac, Seed: seed, DoubleBuffer: r.double, Obs: cfg.Obs})
		if err != nil {
			t.Fatal(err)
		}
		if r.tap != nil {
			st = tapStrategy{st, r.tap}
		}
		cfg.Strategy = st
		out.res, out.err = core.Run(cfg)
	}
	out.now = clock.Now()
	return out
}

// TestEngineParity pins the one pipeline under its entry points: for every
// strategy, with DoubleBuffer off and on, BuildSGDPlan(...).RunResult() with
// Profile off and on gives the weights, epoch points, breakdown rows and
// diagnostics of the core.Run reference bit for bit, and leaves the device
// clock at the same instant. CorgiPile runs as BlockShuffleOp →
// TupleShuffleOp in the executor and as a BlockCursor → TupleBuffer in
// core.Run, which are the same two types; the other six run through the same
// shuffle.Strategy on both sides.
// The procs axis is GOMAXPROCS: training starts no goroutine, so how many
// the scheduler could run at once must not show in any bit.
func TestEngineParity(t *testing.T) {
	for _, kind := range []shuffle.Kind{
		shuffle.KindNoShuffle, shuffle.KindShuffleOnce, shuffle.KindEpochShuffle,
		shuffle.KindSlidingWindow, shuffle.KindMRS, shuffle.KindBlockOnly, shuffle.KindCorgiPile,
	} {
		for _, batch := range []int{1, 16} {
			for _, procs := range []int{1, 2} {
				for _, attach := range []bool{false, true} {
					name := fmt.Sprintf("%s/batch=%d/procs=%d/obs=%v", kind, batch, procs, attach)
					t.Run(name, func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						for _, double := range []bool{false, true} {
							t.Run(fmt.Sprintf("double=%v", double), func(t *testing.T) {
								r := engineRun{kind: kind, tuples: 1200, double: double, attach: attach,
									cfg: core.RunConfig{Epochs: 3, BatchSize: batch}}
								want := r.run(t, engines[0])
								for _, engine := range engines[1:] {
									assertParity(t, want, r.run(t, engine), attach)
								}
							})
						}
					})
				}
			}
		}
	}
}

func assertParity(t *testing.T, a, b engineOut, attach bool) {
	t.Helper()
	if a.err != nil || b.err != nil {
		t.Fatalf("errors: %v / %v", a.err, b.err)
	}
	if !sameBits(a.res.W, b.res.W) {
		t.Fatalf("weights differ")
	}
	if len(a.res.Points) != 3 || !reflect.DeepEqual(a.res.Points, b.res.Points) {
		t.Fatalf("points differ:\n%+v\n%+v", a.res.Points, b.res.Points)
	}
	if a.now != b.now {
		t.Fatalf("clock %v vs %v", a.now, b.now)
	}
	if attach && (len(a.res.Breakdown) != 3 || len(a.res.Diag) != 3 || a.res.Verdict == "") {
		t.Fatalf("attached run carries %d breakdown, %d diag rows, verdict %q",
			len(a.res.Breakdown), len(a.res.Diag), a.res.Verdict)
	}
	if !reflect.DeepEqual(a.res.Breakdown, b.res.Breakdown) {
		t.Fatalf("breakdown differs:\n%+v\n%+v", a.res.Breakdown, b.res.Breakdown)
	}
	if !reflect.DeepEqual(a.res.Diag, b.res.Diag) || a.res.Verdict != b.res.Verdict {
		t.Fatalf("diag differs:\n%+v\n%+v", a.res.Diag, b.res.Diag)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStreamErrorWordedOnce: a read error injected into the device reaches
// the caller in the same words through every entry point — the epoch
// driver, not the engine, wraps it — and errors.Is still finds the cause.
func TestStreamErrorWordedOnce(t *testing.T) {
	for _, kind := range []shuffle.Kind{shuffle.KindCorgiPile, shuffle.KindNoShuffle} {
		r := engineRun{kind: kind, tuples: 1200, cfg: core.RunConfig{Epochs: 2},
			faults: iosim.FaultPlan{Seed: 9, ReadErrorProb: 0.05}}
		var want string
		for _, engine := range engines {
			err := r.run(t, engine).err
			if !errors.Is(err, iosim.ErrTransient) {
				t.Fatalf("%s/%s: err = %v, want iosim.ErrTransient", kind, engine, err)
			}
			if want == "" {
				want = err.Error()
				if !strings.HasPrefix(want, "core: epoch ") || !strings.Contains(want, " stream: storage: block ") {
					t.Fatalf("%s: reference error %q", kind, want)
				}
			} else if err.Error() != want {
				t.Fatalf("%s/%s: err %q, want %q", kind, engine, err, want)
			}
		}
	}
}

// TestPlanFillsCallerFaultReport: a plan built with SGD.Faults accumulates
// into that report, so retries and backoff stay readable after a run that
// fails in its first epoch, when Result.Faults (copied after each completed
// epoch) is still empty.
func TestPlanFillsCallerFaultReport(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 1200, Features: 8, Separation: 1.5, Noise: 1.0, Seed: 23})
	clock := iosim.NewClock()
	dev := iosim.NewDevice(iosim.HDD, clock).WithFaults(iosim.FaultPlan{Seed: 9, ReadErrorProb: 0.5})
	tab, err := storage.Build(dev, ds, storage.Options{BlockSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	report := shuffle.NewFaultReport()
	op, err := BuildSGDPlan(shuffle.TableSource(tab), PlanConfig{
		Resilience: shuffle.Resilience{Retry: storage.RetryPolicy{MaxAttempts: 2, Seed: 1}},
		SGD: SGDConfig{Model: ml.SVM{}, Opt: ml.NewSGD(0.05), Features: ds.Features,
			Epochs: 2, Clock: clock, Faults: report},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := op.RunResult(); !errors.Is(err, iosim.ErrTransient) {
		t.Fatalf("err = %v, want a transient read error in epoch 0", err)
	}
	if n := len(op.Result().Points); n != 0 {
		t.Fatalf("%d epochs completed, want the first to fail", n)
	}
	sum := report.Summary()
	if sum.TransientErrors < 2 || sum.Retries < 1 || sum.BackoffSeconds <= 0 {
		t.Fatalf("caller's report after a failed epoch 0: %+v", sum)
	}
}

// TestEngineConfigHonoured covers the run-config fields and behaviours the
// two entry points once disagreed on; each must hold through both.
func TestEngineConfigHonoured(t *testing.T) {
	for _, engine := range engines {
		t.Run(engine+"/ComputeScale", func(t *testing.T) {
			base := engineRun{kind: shuffle.KindShuffleOnce, tuples: 600, attach: true,
				cfg: core.RunConfig{Epochs: 2}}
			one := base.run(t, engine)
			base.cfg.ComputeScale = 3
			three := base.run(t, engine)
			g1, g3 := one.reg.Counter(obs.SGDGradNanos), three.reg.Counter(obs.SGDGradNanos)
			if g1 == 0 || g3 != 3*g1 {
				t.Fatalf("grad nanos %d at scale 1, %d at scale 3", g1, g3)
			}
			// Not by the whole extra charge: blockIter's read-ahead hides
			// part of the compute behind the next block's I/O.
			if three.now <= one.now {
				t.Fatalf("simulated time %v at scale 3, %v at scale 1", three.now, one.now)
			}
		})
		t.Run(engine+"/TestEval", func(t *testing.T) {
			r := engineRun{kind: shuffle.KindShuffleOnce, tuples: 600, cfg: core.RunConfig{Epochs: 2}}
			r.cfg.TestEval = data.SyntheticBinary(data.SyntheticConfig{
				Tuples: 200, Features: 8, Separation: 1.5, Noise: 1.0, Seed: 24})
			out := r.run(t, engine)
			if out.err != nil {
				t.Fatal(out.err)
			}
			for _, p := range out.res.Points {
				if p.TestAcc == 0 || p.TrainAcc == 0 {
					t.Fatalf("epoch %d: train %v test %v, want both filled", p.Epoch, p.TrainAcc, p.TestAcc)
				}
			}
		})
		t.Run(engine+"/Cancel", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pulled := 0
			r := engineRun{kind: shuffle.KindShuffleOnce, tuples: 3000,
				cfg: core.RunConfig{Epochs: 2, Ctx: ctx},
				tap: func() {
					if pulled++; pulled == 1000 {
						cancel()
					}
				}}
			out := r.run(t, engine)
			if !errors.Is(out.err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", out.err)
			}
			if pulled < 1000 || pulled > 1000+256 {
				t.Fatalf("streamed %d tuples; the cancel at 1000 must land within 256 more", pulled)
			}
		})
	}
}

// A second Init starts the run over: the operator's rows, weights,
// breakdown and diagnostics after the second run equal the first's.
func TestSGDReInitReproducesRun(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 600, Features: 8, Separation: 1.5, Noise: 1.0, Order: data.OrderClustered, Seed: 23})
	clock := iosim.NewClock()
	tab, err := storage.Build(iosim.NewDevice(iosim.HDD, clock), ds, storage.Options{BlockSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// No Shuffle: the child re-reads the same order, so only the driver's
	// own state could make the second run differ.
	op, err := BuildSGDPlan(shuffle.TableSource(tab), PlanConfig{
		Shuffle: shuffle.KindNoShuffle,
		SGD: SGDConfig{Model: ml.SVM{}, Opt: ml.NewSGD(0.05), Features: ds.Features, Epochs: 3,
			TrainEval: ds, Diag: true, Obs: obs.New()},
	})
	if err != nil {
		t.Fatal(err)
	}
	type snap struct {
		rows    []EpochRow
		w       []float64
		diag    []core.EpochDiag
		verdict core.Verdict
		nBreak  int
	}
	runOnce := func() snap {
		rows, err := op.Run()
		if err != nil {
			t.Fatal(err)
		}
		res := op.Result()
		return snap{rows, append([]float64(nil), res.W...), res.Diag, res.Verdict, len(res.Breakdown)}
	}
	first, second := runOnce(), runOnce()
	if len(first.rows) != 3 || first.nBreak != 3 || second.nBreak != 3 {
		t.Fatalf("rows %d, breakdown %d then %d, want 3 each", len(first.rows), first.nBreak, second.nBreak)
	}
	for i := range first.rows {
		a, b := first.rows[i], second.rows[i]
		a.Seconds, b.Seconds = 0, 0 // the clock is the device's and keeps running
		if a != b {
			t.Fatalf("epoch %d: first run %+v, second %+v", i+1, a, b)
		}
	}
	if !sameBits(first.w, second.w) || !reflect.DeepEqual(first.diag, second.diag) || first.verdict != second.verdict {
		t.Fatalf("second run diverged from the first: verdict %q vs %q", first.verdict, second.verdict)
	}
}

// TestDistSingleWorkerIsCoreRun is the third entry point's parity row:
// dist.Train with one worker is core.Run over the CorgiPile strategy at
// BatchSize = GlobalBatch — same weights, same points (simulated seconds
// included), same clock — because its worker is the same BlockCursor →
// TupleBuffer seeded the same way, and the lane it charges is the only one.
func TestDistSingleWorkerIsCoreRun(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 2000, Features: 8, Separation: 1.5, Noise: 1.0,
		Order: data.OrderClustered, Seed: 23})
	const (
		epochs, batch, blockTuples = 4, 48, 30
		seed, frac                 = 7, 0.13 // 260 tuples: the buffer splits a block
		readCost                   = 2 * time.Millisecond
	)
	for _, scale := range []float64{0, 3} {
		distClock := iosim.NewClock()
		got, err := dist.Train(ds, dist.Config{
			Workers: 1, Epochs: epochs, GlobalBatch: batch, BlockTuples: blockTuples,
			BufferFraction: frac, Seed: seed, ComputeScale: scale,
			Model: ml.SVM{}, Opt: ml.NewSGD(0.05), Features: ds.Features, Eval: ds,
			Clock: distClock, BlockReadCost: readCost,
		})
		if err != nil {
			t.Fatal(err)
		}
		clock := iosim.NewClock()
		st, err := shuffle.New(shuffle.KindCorgiPile,
			shuffle.NewMemSource(ds, blockTuples).WithClock(clock, readCost),
			shuffle.Options{BufferFraction: frac, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(core.RunConfig{
			Strategy: st, Model: ml.SVM{}, Opt: ml.NewSGD(0.05), Features: ds.Features,
			Epochs: epochs, BatchSize: batch, ComputeScale: scale,
			Clock: clock, TrainEval: ds,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.W, want.W) {
			t.Fatalf("scale %v: weights differ", scale)
		}
		if len(got.Points) != epochs || !reflect.DeepEqual(got.Points, want.Points) {
			t.Fatalf("scale %v: points differ:\n%+v\n%+v", scale, got.Points, want.Points)
		}
		if distClock.Now() != clock.Now() {
			t.Fatalf("scale %v: clock %v vs %v", scale, distClock.Now(), clock.Now())
		}
	}
}
