package executor

import (
	"fmt"
	"math/rand"

	"corgipile/internal/data"
	"corgipile/internal/obs"
	"corgipile/internal/shuffle"
)

// PlanConfig describes a training query's physical plan.
type PlanConfig struct {
	// Shuffle selects the access-path strategy. The CorgiPile plan is
	// BlockShuffle → TupleShuffle → SGD, two operators over the cursor and
	// buffer shuffle.New(KindCorgiPile) is made of; every other strategy
	// is its internal/shuffle implementation wrapped as one operator
	// (EXPLAIN names No Shuffle's "Scan" and Block-Only's "BlockShuffle").
	// Either way the run is bit-identical to core.Run over the same
	// strategy, simulated time included (TestEngineParity).
	Shuffle shuffle.Kind
	// BufferFraction sizes the TupleShuffle buffer (default 0.1).
	BufferFraction float64
	// DoubleBuffer enables the Section 6.3 optimization.
	DoubleBuffer bool
	// Seed seeds the plan's randomness.
	Seed int64
	// Filter, when non-nil, drops tuples failing the predicate (the WHERE
	// clause), applied above the access path and below SGD.
	Filter func(*data.Tuple) bool
	// FilterDesc describes Filter in EXPLAIN output (e.g. the WHERE text).
	FilterDesc string
	// Profile wraps every operator in a per-node runtime profiler; the
	// executed-plan statistics are exposed as SGDOp.Plan() and streamed per
	// epoch through SGDConfig.Feed. Zero-cost when false.
	Profile bool
	// Resilience, when enabled, wraps the source with retry/backoff and the
	// configured corrupt-block degrade policy below every access path. The
	// wrapper accumulates into SGD.Faults (a fresh report when nil, which
	// then becomes SGD.Faults), summarized in the run's Result.Faults after
	// every completed epoch; a caller that passes its own report can read
	// it even after a run that fails in its first epoch.
	Resilience shuffle.Resilience
	// SGD carries the learner configuration (Strategy must stay nil: the
	// plan's access path is the tuple source).
	SGD SGDConfig
}

// BuildSGDPlan assembles the physical plan for a TRAIN BY query over src
// and returns its SGD root operator.
func BuildSGDPlan(src shuffle.Source, cfg PlanConfig) (*SGDOp, error) {
	if cfg.BufferFraction <= 0 {
		cfg.BufferFraction = shuffle.DefaultBufferFraction
	}
	var prof *PlanProfile
	var shape planShape
	if cfg.Profile {
		shape = buildShape(src, cfg)
		clock := cfg.SGD.Clock
		if clock == nil {
			clock = src.Clock()
		}
		prof = &PlanProfile{skeleton: shape.root, clock: clock}
		if ds, ok := src.(shuffle.DeviceSource); ok {
			prof.dev = ds.Device()
		}
	}
	if cfg.Resilience.Enabled() {
		// Wrap here, below the strategy switch, so every access path —
		// Scan, BlockShuffle, the CorgiPile pipeline, and the fallback
		// strategies — reads through the same retry/quarantine layer.
		// The SGD cancellation context also cancels retry backoff.
		if cfg.Resilience.Ctx == nil {
			cfg.Resilience.Ctx = cfg.SGD.Ctx
		}
		src, cfg.SGD.Faults = shuffle.NewResilientSource(src, cfg.Resilience, cfg.SGD.Obs, cfg.SGD.Faults)
		if prof != nil {
			prof.faults = cfg.SGD.Faults
		}
	}
	// wrap attaches a profiling shell feeding the plan node st; a no-op
	// (returning op and a nil node) when profiling is off.
	wrap := func(op Operator, st *obs.PlanStats) (Operator, *nodeProf) {
		if prof == nil {
			return op, nil
		}
		n := &nodeProf{st: st}
		if ts, ok := op.(*TupleShuffleOp); ok {
			n.ts = ts
		}
		prof.nodes = append(prof.nodes, n)
		return profileShell(op, n, prof.clock), n
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var child Operator
	var top *nodeProf // outermost wrapped node (SGD's direct child)
	switch cfg.Shuffle {
	case shuffle.KindCorgiPile, "":
		capTuples := int(cfg.BufferFraction * float64(src.NumTuples()))
		if capTuples < 1 {
			capTuples = 1
		}
		bs := NewBlockShuffle(src, rng)
		bs.Obs = cfg.SGD.Obs
		bsOp, bsN := wrap(bs, shape.inner)
		ts := NewTupleShuffle(bsOp, capTuples, rng)
		ts.DoubleBuffer = cfg.DoubleBuffer
		ts.Clock = src.Clock()
		ts.CopyCost = shuffle.CopyCost
		ts.Obs = cfg.SGD.Obs
		child, top = wrap(ts, shape.access)
		if top != nil {
			top.children = append(top.children, bsN)
			prof.leaf = bsN
		}
	default:
		st, err := shuffle.New(cfg.Shuffle, src, shuffle.Options{
			BufferFraction: cfg.BufferFraction,
			Seed:           cfg.Seed,
			DoubleBuffer:   cfg.DoubleBuffer,
			Obs:            cfg.SGD.Obs,
		})
		if err != nil {
			return nil, err
		}
		child, top = wrap(&strategyOp{st: st}, shape.access)
	}
	if prof != nil && prof.leaf == nil {
		prof.leaf = top
	}
	if cfg.Filter != nil {
		f, fn := wrap(NewFilter(child, cfg.Filter), shape.filter)
		if fn != nil {
			fn.children = append(fn.children, top)
			top = fn
		}
		child = f
	}
	if prof != nil {
		prof.top = top
	}
	op, err := NewSGD(child, cfg.SGD)
	if err != nil {
		return nil, err
	}
	op.Prof = prof
	return op, nil
}

// strategyOp adapts a shuffle.Strategy to the Operator interface so that
// baseline strategies run under the same SGD operator.
type strategyOp struct {
	st    shuffle.Strategy
	epoch int
	it    shuffle.Iterator
}

// Init implements Operator.
func (op *strategyOp) Init() error {
	op.epoch = 0
	return op.start()
}

func (op *strategyOp) start() error {
	it, err := op.st.StartEpoch(op.epoch)
	if err != nil {
		return fmt.Errorf("executor: strategy %s epoch %d: %w", op.st.Name(), op.epoch, err)
	}
	op.it = it
	return nil
}

// Next implements Operator.
func (op *strategyOp) Next() (*data.Tuple, bool, error) {
	t, ok := op.it.Next()
	if !ok {
		return nil, false, op.it.Err()
	}
	return t, true, nil
}

// ReScan implements Operator.
func (op *strategyOp) ReScan() error {
	op.epoch++
	return op.start()
}

// Close implements Operator.
func (op *strategyOp) Close() error { return nil }
