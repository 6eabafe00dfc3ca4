package executor

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"corgipile/internal/core"
	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
	"corgipile/internal/shuffle"
	"corgipile/internal/storage"
)

// profileKinds are the five strategies the profiling invariants are held
// to: the three dedicated operator plans plus two strategy-fallback plans.
var profileKinds = []shuffle.Kind{
	shuffle.KindNoShuffle,
	shuffle.KindBlockOnly,
	shuffle.KindCorgiPile,
	shuffle.KindSlidingWindow,
	shuffle.KindMRS,
}

// The exclusive-time attribution must telescope: summing each node's self
// simulated time over the whole tree recovers the root's total simulated
// time within 0.1%, for every strategy — including CorgiPile's
// double-buffer pipeline, whose clock rewinds land inside measured windows.
func TestProfileSelfTimeSumsToTotal(t *testing.T) {
	for _, kind := range profileKinds {
		t.Run(string(kind), func(t *testing.T) {
			clock := iosim.NewClock()
			ds := data.SyntheticBinary(data.SyntheticConfig{
				Tuples: 400, Features: 6, Separation: 1.5, Noise: 1.0,
				Order: data.OrderClustered, Seed: 61})
			src := shuffle.NewMemSource(ds, 20).WithClock(clock, 250*time.Microsecond)
			cfg := PlanConfig{
				Shuffle:      kind,
				DoubleBuffer: kind == shuffle.KindCorgiPile,
				Seed:         3,
				Profile:      true,
				Filter:       func(tp *data.Tuple) bool { return tp.ID%2 == 0 },
				FilterDesc:   "id % 2 = 0",
				SGD: SGDConfig{
					Model: ml.SVM{}, Opt: ml.NewSGD(0.05),
					Features: ds.Features, Epochs: 3, Clock: clock,
				},
			}
			op, err := BuildSGDPlan(src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := op.Run(); err != nil {
				t.Fatal(err)
			}
			plan := op.Plan()
			if plan == nil {
				t.Fatal("profiled plan missing")
			}
			if plan.Epoch != 3 {
				t.Fatalf("plan epoch = %d, want 3", plan.Epoch)
			}
			// MRS resamples, so only the operator plans emit exactly
			// half the tuples (the filter's share) per epoch.
			if kind != shuffle.KindMRS && plan.Rows != 3*200 {
				t.Fatalf("root rows = %d, want %d (filter keeps half)", plan.Rows, 3*200)
			}
			if plan.Rows == 0 {
				t.Fatal("no rows recorded at the root")
			}
			total := plan.TotalSimSeconds
			if total <= 0 {
				t.Fatal("no simulated time recorded")
			}
			sum := plan.SelfSimSum()
			if diff := math.Abs(sum - total); diff > 0.001*total {
				t.Fatalf("Σ self = %.9fs, root total = %.9fs: off by %.3g (> 0.1%%)",
					sum, total, diff)
			}
		})
	}
}

// Profiling is read-only: the same plan with and without Profile produces
// bit-identical epoch rows (loss, accuracy, simulated seconds, tuples).
func TestProfiledTrainingMatchesUnprofiled(t *testing.T) {
	run := func(profile bool) []EpochRow {
		clock := iosim.NewClock()
		ds := data.SyntheticBinary(data.SyntheticConfig{
			Tuples: 300, Features: 6, Separation: 1.5, Noise: 1.0,
			Order: data.OrderClustered, Seed: 61})
		src := shuffle.NewMemSource(ds, 15).WithClock(clock, 100*time.Microsecond)
		cfg := PlanConfig{
			Shuffle:      shuffle.KindCorgiPile,
			DoubleBuffer: true,
			Seed:         7,
			Profile:      profile,
			SGD: SGDConfig{
				Model: ml.SVM{}, Opt: ml.NewSGD(0.05),
				Features: ds.Features, Epochs: 4, Clock: clock, TrainEval: ds,
			},
		}
		op, err := BuildSGDPlan(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := op.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	plain, profiled := run(false), run(true)
	if !reflect.DeepEqual(plain, profiled) {
		t.Fatalf("profiling changed the training trace:\nplain:    %+v\nprofiled: %+v", plain, profiled)
	}
}

// obsStaticClock pins the obs registry's timestamps so breakdown rows can
// be compared byte-for-byte.
type obsStaticClock struct{}

func (obsStaticClock) Now() time.Duration { return 0 }

// A run's record must be bit-identical with profiling on and off: the
// profiler reads clocks but reports nothing into the registry, so the
// epochs.jsonl bytes WriteRunDir writes for Result.Breakdown, the loss
// trace and the final weights all stay put.
func TestProfiledTraceBytesIdentical(t *testing.T) {
	run := func(profile bool) (*core.Result, []byte) {
		reg := obs.New().WithClock(obsStaticClock{})
		clock := iosim.NewClock()
		ds := data.SyntheticBinary(data.SyntheticConfig{
			Tuples: 300, Features: 6, Separation: 1.5, Noise: 1.0,
			Order: data.OrderClustered, Seed: 61})
		src := shuffle.NewMemSource(ds, 15).WithClock(clock, 100*time.Microsecond)
		op, err := BuildSGDPlan(src, PlanConfig{
			Shuffle:      shuffle.KindCorgiPile,
			DoubleBuffer: true,
			Seed:         7,
			Profile:      profile,
			SGD: SGDConfig{
				Model: ml.SVM{}, Opt: ml.NewSGD(0.05),
				Features: ds.Features, Epochs: 3, Clock: clock, Obs: reg,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := op.RunResult()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := obs.WriteRunDir(dir, obs.RunArtifacts{Epochs: res.Breakdown}); err != nil {
			t.Fatal(err)
		}
		rows, err := os.ReadFile(filepath.Join(dir, "epochs.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return res, rows
	}
	plain, plainRows := run(false)
	profiled, profiledRows := run(true)
	if n := bytes.Count(plainRows, []byte("\n")); n != 3 {
		t.Fatalf("epochs.jsonl has %d rows, want 3", n)
	}
	if !bytes.Equal(plainRows, profiledRows) {
		t.Fatalf("profiling changed epochs.jsonl:\nplain:    %s\nprofiled: %s", plainRows, profiledRows)
	}
	// %b prints a float64's exact mantissa and exponent.
	if p, q := fmt.Sprintf("%b", plain.Points), fmt.Sprintf("%b", profiled.Points); p != q {
		t.Fatalf("profiling changed the loss trace:\nplain:    %s\nprofiled: %s", p, q)
	}
	if fmt.Sprintf("%b", plain.W) != fmt.Sprintf("%b", profiled.W) {
		t.Fatal("profiling changed the final weights")
	}
}

// A plan over a storage table attributes the device traffic to the
// access-path leaf, and the time invariant holds with real simulated I/O.
func TestProfileDeviceIOAttribution(t *testing.T) {
	clock := iosim.NewClock()
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 500, Features: 6, Separation: 1.5, Noise: 1.0,
		Order: data.OrderClustered, Seed: 61})
	dev := iosim.NewDevice(iosim.SSD, clock).WithCache(1 << 30)
	tab, err := storage.Build(dev, ds, storage.Options{BlockSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PlanConfig{
		Shuffle: shuffle.KindCorgiPile,
		Seed:    1,
		Profile: true,
		SGD: SGDConfig{
			Model: ml.SVM{}, Opt: ml.NewSGD(0.05),
			Features: ds.Features, Epochs: 2, Clock: clock,
		},
	}
	op, err := BuildSGDPlan(shuffle.TableSource(tab), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := op.Run(); err != nil {
		t.Fatal(err)
	}
	plan := op.Plan()
	if len(plan.Children) != 1 || len(plan.Children[0].Children) != 1 {
		t.Fatalf("unexpected plan shape:\n%s", plan.Text(false))
	}
	leaf := plan.Children[0].Children[0]
	if leaf.Name != "BlockShuffle" {
		t.Fatalf("leaf = %s, want BlockShuffle", leaf.Name)
	}
	if leaf.BytesRead == 0 || leaf.BlocksRead == 0 {
		t.Fatalf("leaf I/O not attributed: read=%d blocks=%d", leaf.BytesRead, leaf.BlocksRead)
	}
	buf := plan.Children[0]
	if buf.BufferCap == 0 || buf.BufferPeak == 0 || buf.BufferPeak > buf.BufferCap {
		t.Fatalf("buffer high-water mark wrong: peak=%d cap=%d", buf.BufferPeak, buf.BufferCap)
	}
	total := plan.TotalSimSeconds
	if total <= 0 {
		t.Fatal("no simulated time recorded")
	}
	if diff := math.Abs(plan.SelfSimSum() - total); diff > 0.001*total {
		t.Fatalf("Σ self off by %.3g of total %.9fs", diff, total)
	}
}

// Golden static plans for the five profiled strategies. These exact strings
// double as the baseline for the EXPLAIN ANALYZE renderer: stripping the
// "(actual: ...)" annotations must recover them (see
// TestAnalyzeTextStripsToStaticPlan).
func TestDescribePlanGolden(t *testing.T) {
	src := memSource(100, 10, data.OrderClustered)
	base := PlanConfig{SGD: SGDConfig{Model: ml.SVM{}, Opt: ml.NewSGD(0.1), Epochs: 3}}
	golden := []struct {
		kind   shuffle.Kind
		double bool
		want   string
	}{
		{shuffle.KindNoShuffle, false,
			"SGD (model=svm optimizer=sgd epochs=3 batch=1)\n" +
				"└─ Scan (blocks=10, sequential)\n"},
		{shuffle.KindBlockOnly, false,
			"SGD (model=svm optimizer=sgd epochs=3 batch=1)\n" +
				"└─ BlockShuffle (blocks=10, reshuffled per epoch)\n"},
		{shuffle.KindCorgiPile, true,
			"SGD (model=svm optimizer=sgd epochs=3 batch=1)\n" +
				"└─ TupleShuffle (buffer=10 tuples ≈ 10%, double-buffer)\n" +
				"   └─ BlockShuffle (blocks=10, reshuffled per epoch)\n"},
		{shuffle.KindSlidingWindow, false,
			"SGD (model=svm optimizer=sgd epochs=3 batch=1)\n" +
				"└─ Strategy[sliding_window] (buffer=10% of 100 tuples)\n"},
		{shuffle.KindMRS, false,
			"SGD (model=svm optimizer=sgd epochs=3 batch=1)\n" +
				"└─ Strategy[mrs] (buffer=10% of 100 tuples)\n"},
	}
	for _, g := range golden {
		cfg := base
		cfg.Shuffle = g.kind
		cfg.DoubleBuffer = g.double
		if got := PlanShape(src, cfg).Text(false); got != g.want {
			t.Errorf("%s plan:\n got: %q\nwant: %q", g.kind, got, g.want)
		}
	}
}

// Stripping the " (actual: ...)" annotations from an executed plan's
// EXPLAIN ANALYZE text recovers the static EXPLAIN text byte-for-byte, for
// every strategy.
func TestAnalyzeTextStripsToStaticPlan(t *testing.T) {
	for _, kind := range profileKinds {
		clock := iosim.NewClock()
		ds := data.SyntheticBinary(data.SyntheticConfig{
			Tuples: 200, Features: 6, Separation: 1.5, Noise: 1.0,
			Order: data.OrderClustered, Seed: 61})
		src := shuffle.NewMemSource(ds, 20).WithClock(clock, 50*time.Microsecond)
		cfg := PlanConfig{
			Shuffle: kind,
			Seed:    5,
			Profile: true,
			SGD: SGDConfig{
				Model: ml.SVM{}, Opt: ml.NewSGD(0.05),
				Features: ds.Features, Epochs: 2, Clock: clock,
			},
		}
		op, err := BuildSGDPlan(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := op.Run(); err != nil {
			t.Fatal(err)
		}
		analyzed := op.Plan().Text(true)
		var stripped strings.Builder
		for _, line := range strings.Split(strings.TrimRight(analyzed, "\n"), "\n") {
			if i := strings.Index(line, " (actual: "); i >= 0 {
				line = line[:i]
			}
			stripped.WriteString(line)
			stripped.WriteString("\n")
		}
		static := PlanShape(src, cfg).Text(false)
		if stripped.String() != static {
			t.Errorf("%s: stripped ANALYZE text diverged from EXPLAIN:\n got: %q\nwant: %q",
				kind, stripped.String(), static)
		}
	}
}

// Plan() on an unprofiled operator returns nil — callers can always ask.
func TestPlanNilWithoutProfile(t *testing.T) {
	src := memSource(100, 10, data.OrderClustered)
	op, err := BuildSGDPlan(src, PlanConfig{
		Shuffle: shuffle.KindCorgiPile,
		SGD:     SGDConfig{Model: ml.SVM{}, Opt: ml.NewSGD(0.1), Features: 6, Epochs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := op.Run(); err != nil {
		t.Fatal(err)
	}
	if op.Plan() != nil {
		t.Fatal("unprofiled plan should be nil")
	}
}

// RunResult adapts the operator run to the library's core.Result, carrying
// the profile tree.
func TestRunResultCarriesPlan(t *testing.T) {
	clock := iosim.NewClock()
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 200, Features: 6, Separation: 1.5, Noise: 1.0,
		Order: data.OrderClustered, Seed: 61})
	src := shuffle.NewMemSource(ds, 20).WithClock(clock, 50*time.Microsecond)
	op, err := BuildSGDPlan(src, PlanConfig{
		Shuffle: shuffle.KindCorgiPile,
		Profile: true,
		SGD: SGDConfig{
			Model: ml.SVM{}, Opt: ml.NewSGD(0.05),
			Features: ds.Features, Epochs: 2, Clock: clock, TrainEval: ds,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := op.RunResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("RunResult dropped the plan")
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	if res.Points[1].AvgLoss == 0 || res.Points[1].Tuples != 200 {
		t.Fatalf("bad final point: %+v", res.Points[1])
	}
}
