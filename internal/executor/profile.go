package executor

import (
	"time"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/obs"
	"corgipile/internal/shuffle"
)

// This file implements per-operator runtime profiling of the Volcano plan.
// When PlanConfig.Profile is set, BuildSGDPlan wraps every operator below
// the SGD root in a profiledOp shell that charges simulated- and wall-clock
// deltas across each Init/Next/ReScan/Close call to its plan node. The
// attribution is telescoping: a node's inclusive time is the sum of the
// clock deltas observed across its own calls, its exclusive ("self") time
// is that inclusive time minus its direct children's inclusive time, and
// because every child call happens inside a parent's measured window, the
// exclusive times over the whole tree sum exactly to the root's total —
// even under the double-buffer pipeline's clock rewinds, which always land
// inside some measured window. Profiling is strictly additive: with
// Profile off, not a single extra clock read or allocation happens and the
// plan is byte-identical to the unprofiled build.

// PlanProfile accumulates an executing plan's per-operator statistics and
// renders them as obs.PlanStats snapshots — the EXPLAIN ANALYZE payload.
type PlanProfile struct {
	skeleton *obs.PlanStats // static shape; root is the SGD node
	clock    *iosim.Clock   // simulated clock (nil = wall-clock only)
	nodes    []*nodeProf    // every wrapped node below the SGD root
	top      *nodeProf      // SGD's direct child
	leaf     *nodeProf      // access-path leaf that performs device I/O

	dev     *iosim.Device // device backing the leaf, when known
	devBase iosim.Stats   // device counters at Start
	faults  *shuffle.FaultReport

	startSim  time.Duration
	startWall time.Time
	epoch     int
	rows      int64
}

// Start marks the profile's time and device baselines. The SGD operator
// calls it on Init entry — before the child pipeline initializes — so
// strategy preprocessing (e.g. Shuffle Once's full sort) is attributed to
// the run.
func (pp *PlanProfile) Start() {
	if pp == nil {
		return
	}
	pp.startWall = time.Now()
	if pp.clock != nil {
		pp.startSim = pp.clock.Now()
	}
	if pp.dev != nil {
		pp.devBase = pp.dev.Stats()
	}
	pp.epoch = 0
	pp.rows = 0
	for _, n := range pp.nodes {
		n.reset()
	}
}

// EndEpoch folds one completed epoch (which produced rows tuples at the
// root) into the profile.
func (pp *PlanProfile) EndEpoch(rows int) {
	if pp == nil {
		return
	}
	pp.epoch++
	pp.rows += int64(rows)
}

// Snapshot computes the current per-node statistics into the plan tree and
// returns an immutable deep copy. Cumulative since Start; safe to call
// mid-run (between epochs) and after Close.
func (pp *PlanProfile) Snapshot() *obs.PlanStats {
	if pp == nil {
		return nil
	}
	var totalSim time.Duration
	if pp.clock != nil {
		totalSim = pp.clock.Now() - pp.startSim
	}
	totalWall := time.Since(pp.startWall)

	for _, n := range pp.nodes {
		n.fill()
	}

	root := pp.skeleton
	root.Rows = pp.rows
	root.Calls = int64(pp.epoch)
	root.Loops = int64(pp.epoch)
	root.Epoch = pp.epoch
	root.TotalSimSeconds = totalSim.Seconds()
	root.TotalWallSeconds = totalWall.Seconds()
	var childSim, childWall time.Duration
	if pp.top != nil {
		childSim, childWall = pp.top.incSim, pp.top.incWall
	}
	root.SelfSimSeconds = (totalSim - childSim).Seconds()
	root.SelfWallSeconds = (totalWall - childWall).Seconds()

	if pp.leaf != nil {
		st := pp.leaf.st
		if pp.dev != nil {
			d := pp.dev.Stats()
			st.BytesRead = d.BytesRead - pp.devBase.BytesRead
			st.CacheHitBytes = d.CacheHitBytes - pp.devBase.CacheHitBytes
			st.BlocksRead = d.Reads - pp.devBase.Reads
			st.Faults = d.Faults - pp.devBase.Faults
			st.Stragglers = d.Stragglers - pp.devBase.Stragglers
		}
		if pp.faults != nil {
			s := pp.faults.Summary()
			st.Retries = s.Retries
			st.SkippedBlocks = int64(len(s.SkippedBlocks))
		}
	}
	return root.Clone()
}

// nodeProf holds the raw measurements for one wrapped operator node.
type nodeProf struct {
	st       *obs.PlanStats
	children []*nodeProf

	rows    int64
	calls   int64
	loops   int64
	incSim  time.Duration
	incWall time.Duration

	// ts, for shuffle-buffer nodes, is polled after each Next for the
	// occupancy high-water mark.
	ts      *TupleShuffleOp
	bufPeak int
}

func (n *nodeProf) reset() {
	n.rows, n.calls, n.loops = 0, 0, 0
	n.incSim, n.incWall = 0, 0
	n.bufPeak = 0
}

// fill computes the node's plan statistics from its raw measurements.
func (n *nodeProf) fill() {
	n.st.Rows = n.rows
	n.st.Calls = n.calls
	n.st.Loops = n.loops
	var chSim, chWall time.Duration
	for _, c := range n.children {
		chSim += c.incSim
		chWall += c.incWall
	}
	n.st.TotalSimSeconds = n.incSim.Seconds()
	n.st.SelfSimSeconds = (n.incSim - chSim).Seconds()
	n.st.TotalWallSeconds = n.incWall.Seconds()
	n.st.SelfWallSeconds = (n.incWall - chWall).Seconds()
	if n.ts != nil {
		n.st.BufferPeak = n.bufPeak
	}
}

// profiledOp wraps an Operator, charging every call's simulated- and
// wall-clock delta to its node.
type profiledOp struct {
	op    Operator
	n     *nodeProf
	clock *iosim.Clock
}

// profileShell wraps op in a profiling shell feeding n; a block-granular
// operator keeps its block pull.
func profileShell(op Operator, n *nodeProf, clock *iosim.Clock) Operator {
	shell := profiledOp{op: op, n: n, clock: clock}
	if b, ok := op.(blockOperator); ok {
		return &profiledBlockOp{profiledOp: shell, blocks: b}
	}
	return &shell
}

// start opens a measured window; stop closes it, charging the simulated-
// and wall-clock time in between to the node.
func (p *profiledOp) start() (s0 time.Duration, w0 time.Time) {
	if p.clock != nil {
		s0 = p.clock.Now()
	}
	return s0, time.Now()
}

func (p *profiledOp) stop(s0 time.Duration, w0 time.Time) {
	p.n.incWall += time.Since(w0)
	if p.clock != nil {
		p.n.incSim += p.clock.Now() - s0
	}
}

func (p *profiledOp) measure(f func() error) error {
	s0, w0 := p.start()
	err := f()
	p.stop(s0, w0)
	return err
}

// Init implements Operator.
func (p *profiledOp) Init() error {
	p.n.loops++
	return p.measure(p.op.Init)
}

// Next implements Operator.
func (p *profiledOp) Next() (*data.Tuple, bool, error) {
	s0, w0 := p.start()
	t, ok, err := p.op.Next()
	p.stop(s0, w0)
	p.n.calls++
	if ok {
		p.n.rows++
	}
	if p.n.ts != nil {
		if l := p.n.ts.BufferLen(); l > p.n.bufPeak {
			p.n.bufPeak = l
		}
	}
	return t, ok, err
}

// ReScan implements Operator.
func (p *profiledOp) ReScan() error {
	p.n.loops++
	return p.measure(p.op.ReScan)
}

// Close implements Operator. Teardown is measured too: closing a
// partially-consumed pipelined epoch settles the simulated clock, and that
// settle must land inside a measured window for the attribution to
// telescope.
func (p *profiledOp) Close() error {
	return p.measure(p.op.Close)
}

// profiledBlockOp is the profiling shell of a block-granular operator: it
// forwards the block pull too, so a profiled plan fills its shuffle buffer
// through the same path as an unprofiled one. A block pull counts as one
// call and as many rows as the block holds.
type profiledBlockOp struct {
	profiledOp
	blocks blockOperator
}

// NextBlock implements blockOperator.
func (p *profiledBlockOp) NextBlock() ([]data.Tuple, bool, error) {
	s0, w0 := p.start()
	block, ok, err := p.blocks.NextBlock()
	p.stop(s0, w0)
	p.n.calls++
	p.n.rows += int64(len(block))
	return block, ok, err
}
