package executor

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"corgipile/internal/core"
	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/obs"
	"corgipile/internal/shuffle"
)

// timedOp is a child operator that charges fixed simulated I/O time per
// tuple; after n tuples it either ends the scan or returns err.
type timedOp struct {
	clock *iosim.Clock
	cost  time.Duration
	total int
	err   error

	left int
}

func (o *timedOp) Init() error { o.left = o.total; return nil }
func (o *timedOp) Next() (*data.Tuple, bool, error) {
	if o.left <= 0 {
		return nil, false, o.err
	}
	o.left--
	o.clock.Advance(o.cost)
	return &data.Tuple{ID: int64(o.total - o.left), Dense: []float64{1}}, true, nil
}
func (o *timedOp) ReScan() error { o.left = o.total; return nil }
func (o *timedOp) Close() error  { return nil }

// pipelinedShuffle builds a double-buffered TupleShuffleOp over a timed child.
func pipelinedShuffle(t *testing.T, clock *iosim.Clock, child Operator, capacity int, reg *obs.Registry) *TupleShuffleOp {
	t.Helper()
	op := NewTupleShuffle(child, capacity, rand.New(rand.NewSource(7)))
	op.DoubleBuffer = true
	op.Clock = clock
	op.Obs = reg
	if err := op.Init(); err != nil {
		t.Fatal(err)
	}
	return op
}

// assertSettled checks that the operator's overlap accounting is closed: no
// consume interval is open and the clock is at or past the pipeline's
// completion time. Both are private to iosim.Overlap, so it asks the
// question behaviourally — settling again must change nothing, even after
// more consumer time has passed.
func assertSettled(t *testing.T, op *TupleShuffleOp, clock *iosim.Clock, reg *obs.Registry) {
	t.Helper()
	consumed, now := reg.Counter(obs.ShuffleConsumeNanos), clock.Now()
	op.Settle()
	if clock.Now() != now {
		t.Fatalf("clock %v was left before the pipeline's end %v", now, clock.Now())
	}
	clock.Advance(time.Millisecond)
	op.Settle()
	if got := reg.Counter(obs.ShuffleConsumeNanos); got != consumed {
		t.Fatalf("a consume interval was left open: consume time %d -> %d", consumed, got)
	}
	if clock.Now() != now+time.Millisecond {
		t.Fatalf("settling twice moved the clock: %v -> %v", now+time.Millisecond, clock.Now())
	}
}

// TestErroringChildSettlesPipeline: when the child fails mid-refill, the
// operator must propagate the error with the pipeline settled — no open
// consume interval and the clock at or past the pipeline's
// completion time — rather than leaving the epoch's accounting dangling.
func TestErroringChildSettlesPipeline(t *testing.T) {
	sentinel := errors.New("storage failed")
	clock := iosim.NewClock()
	reg := obs.New().WithClock(clock)
	child := &timedOp{clock: clock, cost: time.Millisecond, total: 25, err: sentinel}
	op := pipelinedShuffle(t, clock, child, 10, reg)
	defer op.Close()

	var got error
	for {
		_, ok, err := op.Next()
		if err != nil {
			got = err
			break
		}
		if !ok {
			break
		}
		clock.Advance(100 * time.Microsecond) // consumer compute
	}
	if !errors.Is(got, sentinel) {
		t.Fatalf("error = %v, want sentinel", got)
	}
	assertSettled(t, op, clock, reg)
	// The 25 serial milliseconds of child I/O must all have been charged.
	if clock.Now() < 25*time.Millisecond {
		t.Fatalf("clock %v lost charged fill time", clock.Now())
	}
	// The consume time up to the failure must have reached the registry.
	if reg.Counter(obs.ShuffleConsumeNanos) <= 0 {
		t.Fatal("consume time of the aborted epoch was not recorded")
	}
}

// TestCloseMidEpochSettlesClock: closing a partially-consumed pipelined
// epoch must close the open consume interval (recording its time) and leave
// the clock at or past the pipeline's completion time, without rewinding.
func TestCloseMidEpochSettlesClock(t *testing.T) {
	clock := iosim.NewClock()
	reg := obs.New().WithClock(clock)
	child := &timedOp{clock: clock, cost: time.Millisecond, total: 100}
	op := pipelinedShuffle(t, clock, child, 10, reg)

	// Consume past the first refill so a second fill and a consume interval
	// are both in flight.
	for i := 0; i < 15; i++ {
		if _, ok, err := op.Next(); err != nil || !ok {
			t.Fatalf("Next() = %v, %v", ok, err)
		}
		clock.Advance(200 * time.Microsecond)
	}
	consumed := reg.Counter(obs.ShuffleConsumeNanos)
	before := clock.Now()
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if clock.Now() < before {
		t.Fatalf("Close rewound the clock: %v -> %v", before, clock.Now())
	}
	if after := reg.Counter(obs.ShuffleConsumeNanos); after <= consumed {
		t.Fatalf("open consume interval not recorded on Close: %d -> %d", consumed, after)
	}
	assertSettled(t, op, clock, reg)
}

// TestReScanMidEpochSettlesThenCovers: a mid-epoch ReScan settles the
// abandoned epoch's pipeline and the following epoch still covers the whole
// child exactly once with monotonically advancing simulated time.
func TestReScanMidEpochSettlesThenCovers(t *testing.T) {
	clock := iosim.NewClock()
	reg := obs.New().WithClock(clock)
	child := &timedOp{clock: clock, cost: time.Millisecond, total: 60}
	op := pipelinedShuffle(t, clock, child, 10, reg)
	defer op.Close()

	for i := 0; i < 12; i++ {
		if _, ok, err := op.Next(); err != nil || !ok {
			t.Fatalf("Next() = %v, %v", ok, err)
		}
		clock.Advance(100 * time.Microsecond)
	}
	before := clock.Now()
	if err := op.ReScan(); err != nil {
		t.Fatal(err)
	}
	if clock.Now() < before {
		t.Fatalf("ReScan rewound the clock: %v -> %v", before, clock.Now())
	}

	seen := map[int64]bool{}
	for {
		tup, ok, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if seen[tup.ID] {
			t.Fatalf("tuple %d emitted twice after ReScan", tup.ID)
		}
		seen[tup.ID] = true
	}
	if len(seen) != 60 {
		t.Fatalf("epoch after mid-epoch ReScan covered %d tuples, want 60", len(seen))
	}
}

// A ReadBlock error in the middle of an epoch, through every entry point and both
// users of the overlap accounting (CorgiPile's double buffer, the baselines'
// read-ahead): the run fails with the storage error and the clock is left
// settled — at or past the instant of the failed read, never rewound to the
// pipeline's overlapped time, which has not seen the aborted fill.
func TestReadErrorMidEpochSettlesClock(t *testing.T) {
	for _, kind := range []shuffle.Kind{shuffle.KindCorgiPile, shuffle.KindNoShuffle} {
		for _, engine := range engines {
			t.Run(string(kind)+"/"+engine, func(t *testing.T) {
				var failedAt time.Duration
				r := engineRun{kind: kind, tuples: 1200, double: true, cfg: core.RunConfig{Epochs: 2},
					wrap: func(src shuffle.Source, clock *iosim.Clock) shuffle.Source {
						return &failingSource{Source: src, failAt: 7, onFail: func() {
							clock.Advance(time.Millisecond) // the failed read's latency
							failedAt = clock.Now()
						}}
					}}
				out := r.run(t, engine)
				if !errors.Is(out.err, errReadFailed) {
					t.Fatalf("err = %v, want the read error", out.err)
				}
				if failedAt == 0 || out.now < failedAt {
					t.Fatalf("clock left at %v, before the failed read at %v", out.now, failedAt)
				}
			})
		}
	}
}
