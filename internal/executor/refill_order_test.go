package executor

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
	"corgipile/internal/shuffle"
	"corgipile/internal/storage"
)

// The goldens in this file were captured from the tuple-at-a-time refill
// loop this package had before block-granular fill: they pin the emitted
// tuple order and the simulated instant of every refill, so any change to
// when a block is read, what rng.Shuffle sees, or how the double-buffer
// pipeline is accounted shows up as a diff. CORGI_PRINT_GOLDEN=1 prints the
// observed values instead of comparing.

// refillTable lays 95 four-feature tuples out ten to a block (nine full
// blocks and a five-tuple tail) on an HDD, so random block order costs
// seeks and every read moves the clock.
func refillTable(t *testing.T) *storage.Table {
	t.Helper()
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 95, Features: 4, Separation: 1.5, Noise: 1.0,
		Order: data.OrderClustered, Seed: 17})
	tab, err := storage.Build(iosim.NewDevice(iosim.HDD, iosim.NewClock()), ds, storage.Options{BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumBlocks() != 10 || tab.BlockTuples(0) != 10 || tab.BlockTuples(9) != 5 {
		t.Fatalf("layout drifted: %d blocks, first %d, last %d", tab.NumBlocks(), tab.BlockTuples(0), tab.BlockTuples(9))
	}
	return tab
}

// corgiAccessPath assembles BlockShuffle → TupleShuffle exactly as
// BuildSGDPlan does, optionally with both operators in profiling shells.
func corgiAccessPath(src shuffle.Source, capacity int, double, profile bool) (Operator, *TupleShuffleOp) {
	rng := rand.New(rand.NewSource(5))
	wrap := func(op Operator) Operator {
		if !profile {
			return op
		}
		return profileShell(op, &nodeProf{st: &obs.PlanStats{}}, src.Clock())
	}
	ts := NewTupleShuffle(wrap(NewBlockShuffle(src, rng)), capacity, rng)
	ts.DoubleBuffer = double
	ts.Clock = src.Clock()
	ts.CopyCost = 60 * time.Nanosecond
	return wrap(ts), ts
}

// observeEpochs drains two epochs by hand, charging 3µs of consumer compute
// per tuple, and renders the ID sequence (as a hash), the clock right after
// every refill, and the clock at each epoch's end. A child error ends the
// observation and is rendered too.
func observeEpochs(top Operator, ts *TupleShuffleOp, clock *iosim.Clock) string {
	h := fnv.New64a()
	var refills, ends []time.Duration
	n, left := 0, 0 // tuples emitted; tuples left in the current buffer
	fail := func(err error) string {
		return fmt.Sprintf("n=%d ids=%016x refills=%v ends=%v err=%q at=%v", n, h.Sum64(), refills, ends, err, clock.Now())
	}
	if err := top.Init(); err != nil {
		return fail(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		if epoch > 0 {
			if err := top.ReScan(); err != nil {
				return fail(err)
			}
		}
		for {
			tp, ok, err := top.Next()
			if err != nil {
				return fail(err)
			}
			if !ok {
				break
			}
			if left == 0 { // first tuple of a freshly loaded buffer
				refills = append(refills, clock.Now())
				left = ts.BufferLen()
			}
			left--
			fmt.Fprintf(h, "%d,", tp.ID)
			n++
			clock.Advance(3 * time.Microsecond)
		}
		ends = append(ends, clock.Now())
	}
	if err := top.Close(); err != nil {
		return fail(err)
	}
	return fmt.Sprintf("n=%d ids=%016x refills=%v ends=%v", n, h.Sum64(), refills, ends)
}

func checkGolden(t *testing.T, got, want string) {
	t.Helper()
	if os.Getenv("CORGI_PRINT_GOLDEN") != "" {
		fmt.Printf("GOLDEN %s: %s\n", t.Name(), got)
		return
	}
	if got != want {
		t.Fatalf("refill order drifted from the tuple-at-a-time loop\n got: %s\nwant: %s", got, want)
	}
}

func TestRefillOrderPinned(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		double   bool
		want     string
	}{
		// 20 and 10 divide the ten-tuple blocks; 13 and 7 split them; 95 is
		// the whole table (exhaustion is only seen by an empty extra
		// refill); 200 never fills.
		{"cap20", 20, false, `n=190 ids=32ee32673bd866df refills=[20.118228ms 40.296456ms 70.533198ms 90.711426ms 100.83084ms 131.052582ms 151.23081ms 171.409038ms 191.587266ms 191.70668ms] ends=[100.87584ms 191.75168ms] reads=20`},
		{"cap20/double", 20, true, `n=190 ids=32ee32673bd866df refills=[20.118228ms 40.236456ms 70.413198ms 90.531426ms 100.59084ms 130.812582ms 150.93081ms 171.049038ms 191.167266ms 191.227266ms] ends=[100.63584ms 191.272266ms] reads=20`},
		{"cap13", 13, false, `n=190 ids=b7e0d7fb4cb18993 refills=[20.117808ms 30.216102ms 40.314396ms 60.471204ms 70.569498ms 90.726306ms 100.8246ms 100.86384ms 110.993648ms 121.091942ms 131.190236ms 151.347044ms 161.445338ms 171.543632ms 191.70044ms 191.73968ms] ends=[100.87584ms 191.75168ms] reads=20`},
		{"cap13/double", 13, true, `n=190 ids=b7e0d7fb4cb18993 refills=[20.117808ms 30.177102ms 40.236396ms 60.354204ms 70.413498ms 90.531306ms 100.5906ms 100.6296ms 110.759408ms 120.818702ms 130.877996ms 150.995804ms 161.055098ms 171.114392ms 191.2322ms 191.2712ms] ends=[100.6416ms 191.2832ms] reads=20`},
		{"cap10/double", 10, true, `n=190 ids=d2a39d4ccaf270ed refills=[10.059114ms 20.118228ms 30.177342ms 40.236456ms 60.354084ms 70.413198ms 80.472312ms 90.531426ms 100.59054ms 100.62054ms 110.694654ms 120.753768ms 130.812882ms 140.871996ms 160.989624ms 161.048738ms 171.107852ms 181.166966ms 191.22608ms 191.25608ms] ends=[100.63554ms 191.27108ms] reads=20`},
		{"cap7/double", 7, true, `n=190 ids=c972371438e8fd39 refills=[10.058934ms 20.117868ms 30.176802ms 30.197802ms 40.256736ms 50.31567ms 60.374604ms 70.433538ms 70.454538ms 80.513472ms 90.572406ms 90.593406ms 100.65234ms 100.67334ms 110.744274ms 120.803208ms 130.862142ms 130.883142ms 140.942076ms 151.00101ms 161.059944ms 161.118878ms 161.139878ms 171.198812ms 181.257746ms 181.278746ms 181.33768ms 181.35868ms] ends=[100.68534ms 181.37068ms] reads=20`},
		{"cap95/double", 95, true, `n=190 ids=d60792b1a24b96a1 refills=[100.59084ms 181.46668ms] ends=[100.87584ms 181.75168ms] reads=20`},
		{"cap200", 200, false, `n=190 ids=d60792b1a24b96a1 refills=[100.59084ms 181.46668ms] ends=[100.87584ms 181.75168ms] reads=20`},
	}
	for _, tc := range cases {
		for _, profile := range []bool{false, true} {
			name := tc.name
			if profile {
				name += "/profile"
			}
			t.Run(name, func(t *testing.T) {
				tab := refillTable(t)
				src := shuffle.TableSource(tab)
				top, ts := corgiAccessPath(src, tc.capacity, tc.double, profile)
				got := observeEpochs(top, ts, src.Clock())
				got += fmt.Sprintf(" reads=%d", tab.Device().Stats().Reads)
				// Profiling is read-only: one golden serves both.
				checkGolden(t, got, tc.want)
			})
		}
	}
}

// failingSource fails the failAt-th ReadBlock call (1-based) of its life.
type failingSource struct {
	shuffle.Source
	failAt, calls int
	onFail        func() // called just before the failure is returned
}

var errReadFailed = errors.New("read failed")

func (s *failingSource) ReadBlock(i int) ([]data.Tuple, error) {
	s.calls++
	if s.calls == s.failAt {
		if s.onFail != nil {
			s.onFail()
		}
		return nil, errReadFailed
	}
	return s.Source.ReadBlock(i)
}

// A child error in the middle of a refill: at a block boundary below a
// block-granular child, and in the middle of a block below a tuple-at-a-time
// child. What was emitted before, and where the clock was settled, are pinned.
func TestRefillOrderChildErrorPinned(t *testing.T) {
	t.Run("block-read", func(t *testing.T) {
		tab := refillTable(t)
		// Capacity 13, fifth read fails: the third refill holds six tuples
		// of block four and asks for more.
		src := &failingSource{Source: shuffle.TableSource(tab), failAt: 5}
		top, ts := corgiAccessPath(src, 13, true, false)
		checkGolden(t, observeEpochs(top, ts, src.Clock()),
			`n=39 ids=4c93ca65321594b7 refills=[20.117808ms 30.177102ms 40.236396ms] ends=[] err="read failed" at=40.275396ms`)
	})
	t.Run("tuple-child", func(t *testing.T) {
		clock := iosim.NewClock()
		child := &timedOp{clock: clock, cost: time.Millisecond, total: 25, err: errReadFailed}
		ts := NewTupleShuffle(child, 10, rand.New(rand.NewSource(5)))
		ts.DoubleBuffer = true
		ts.Clock = clock
		ts.CopyCost = 60 * time.Nanosecond
		checkGolden(t, observeEpochs(ts, ts, clock),
			`n=20 ids=9ef8ba3179bc6439 refills=[10.0006ms 20.0012ms] ends=[] err="read failed" at=25.0312ms`)
	})
}

// Mini-batches of 64 over a 19-tuple buffer: every batch spans three or four
// refills, so a batch's gradient is summed from tuples that no buffer holds
// at once. The whole training trace is pinned, profiled and not.
func TestRefillOrderBatchSpansRefills(t *testing.T) {
	const want = `[1 3fefa17a6f523b13 3fb9c0b8417a73ba 95][2 3feb51185c752743 3fc8790a2cff9272 95][3 3fe76049cf885551 3fd16505126384e0 95] w=fa26dfe12cfa8d7b`
	for _, profile := range []bool{false, true} {
		t.Run(fmt.Sprintf("profile=%v", profile), func(t *testing.T) {
			tab := refillTable(t)
			op, err := BuildSGDPlan(shuffle.TableSource(tab), PlanConfig{
				Shuffle: shuffle.KindCorgiPile, BufferFraction: 0.2, DoubleBuffer: true, Seed: 5, Profile: profile,
				SGD: SGDConfig{
					Model: ml.SVM{}, Opt: ml.NewSGD(0.05), Features: tab.Features(),
					Epochs: 3, BatchSize: 64, Clock: tab.Device().Clock(),
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			rows, err := op.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := ""
			for _, r := range rows {
				got += fmt.Sprintf("[%d %016x %016x %d]", r.Epoch, math.Float64bits(r.AvgLoss), math.Float64bits(r.Seconds), r.Tuples)
			}
			h := fnv.New64a()
			for _, w := range op.Result().W {
				fmt.Fprintf(h, "%016x", math.Float64bits(w))
			}
			got += fmt.Sprintf(" w=%016x", h.Sum64())
			checkGolden(t, got, want)
		})
	}
}

// A steady-state epoch through BlockShuffle → TupleShuffle allocates three
// times (the block order, the overlap's pipeline and its two-slot ring)
// however many blocks it reads: the blocks come decoded from the table's
// image and the shuffle buffer keeps its storage from epoch to epoch.
func TestRefillAllocatesPerEpochNotPerBlock(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 4000, Features: 4, Separation: 1.5, Noise: 1.0,
		Order: data.OrderClustered, Seed: 17})
	for _, blockSize := range []int64{8 << 10, 1 << 10} { // ten refills over 26 blocks, then over 211
		tab, err := storage.Build(iosim.NewDevice(iosim.SSD, iosim.NewClock()), ds, storage.Options{BlockSize: blockSize})
		if err != nil {
			t.Fatal(err)
		}
		top, _ := corgiAccessPath(shuffle.TableSource(tab), 400, true, false)
		if err := top.Init(); err != nil {
			t.Fatal(err)
		}
		defer top.Close()
		perEpoch := testing.AllocsPerRun(5, func() { // the warm-up run decodes the table
			if err := top.ReScan(); err != nil {
				t.Fatal(err)
			}
			for n := 0; ; n++ {
				_, ok, err := top.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					if n != tab.NumTuples() {
						t.Fatalf("epoch emitted %d tuples, want %d", n, tab.NumTuples())
					}
					return
				}
			}
		})
		if perEpoch > 3 {
			t.Fatalf("an epoch over %d blocks (%d tuples) allocates %v times, want <= 3", tab.NumBlocks(), tab.NumTuples(), perEpoch)
		}
	}
}
