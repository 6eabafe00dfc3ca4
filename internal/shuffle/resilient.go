package shuffle

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/obs"
	"corgipile/internal/storage"
)

// FailurePolicy decides what a resilient source does when a block read fails
// permanently (storage.ErrCorrupt after the retry budget is spent).
type FailurePolicy int

const (
	// FailFast aborts the epoch on the first permanent error — the default,
	// and the only behaviour the engine had before fault injection existed.
	FailFast FailurePolicy = iota
	// SkipCorrupt quarantines the bad block and keeps training on the
	// remaining data, recording the loss. Training aborts anyway when the
	// skipped-tuple fraction exceeds Resilience.MaxSkipFraction.
	SkipCorrupt
)

// String renders the policy in the form ParseFailurePolicy accepts.
func (p FailurePolicy) String() string {
	if p == SkipCorrupt {
		return "skip"
	}
	return "fail"
}

// ParseFailurePolicy parses "fail" or "skip" (the SQL on_corrupt values).
func ParseFailurePolicy(s string) (FailurePolicy, error) {
	switch s {
	case "", "fail", "fail_fast":
		return FailFast, nil
	case "skip", "skip_corrupt":
		return SkipCorrupt, nil
	}
	return FailFast, fmt.Errorf("shuffle: unknown failure policy %q (want fail or skip)", s)
}

// ErrSkipBudget reports that SkipCorrupt quarantined more data than the
// configured cap allows; training past this point would silently fit a
// meaningfully different dataset.
var ErrSkipBudget = errors.New("shuffle: skipped-data budget exceeded")

// DefaultMaxSkipFraction is the quarantine cap when Resilience leaves
// MaxSkipFraction zero: 5% of tuples.
const DefaultMaxSkipFraction = 0.05

// Resilience bundles the failure-handling configuration a training run
// threads down to its block reads. The zero value is exactly today's
// behaviour: one read attempt, abort on any error.
type Resilience struct {
	// Retry bounds transient-error retries on every block read.
	Retry storage.RetryPolicy
	// OnCorrupt picks the degrade policy for permanent block corruption.
	OnCorrupt FailurePolicy
	// MaxSkipFraction caps the fraction of tuples SkipCorrupt may quarantine
	// before aborting (0 selects DefaultMaxSkipFraction).
	MaxSkipFraction float64
	// Ctx, when non-nil, cancels retry backoff between attempts: a canceled
	// training job stops mid-storm instead of draining the retry budget.
	Ctx context.Context
}

// Enabled reports whether the configuration changes any behaviour.
func (r Resilience) Enabled() bool {
	return r.Retry.Enabled() || r.OnCorrupt != FailFast
}

func (r Resilience) skipCap() float64 {
	if r.MaxSkipFraction <= 0 {
		return DefaultMaxSkipFraction
	}
	return r.MaxSkipFraction
}

// FaultSummary is the immutable fault accounting attached to a training
// result: what went wrong, what it cost, and what was lost.
type FaultSummary struct {
	// TransientErrors counts block-read attempts that failed transiently.
	TransientErrors int64
	// Retries counts the retry attempts taken (each after one backoff).
	Retries int64
	// BackoffSeconds is the simulated time spent backing off.
	BackoffSeconds float64
	// SkippedBlocks lists block indices quarantined by SkipCorrupt, sorted.
	SkippedBlocks []int
	// SkippedTuples counts tuples lost to quarantined blocks.
	SkippedTuples int
}

// Degraded reports whether any data was lost to quarantine.
func (s FaultSummary) Degraded() bool { return s.SkippedTuples > 0 }

// String renders a one-line human-readable summary ("clean" when empty).
func (s FaultSummary) String() string {
	if s.TransientErrors == 0 && s.Retries == 0 && len(s.SkippedBlocks) == 0 {
		return "clean"
	}
	out := fmt.Sprintf("transient=%d retries=%d backoff=%.3fs", s.TransientErrors, s.Retries, s.BackoffSeconds)
	if len(s.SkippedBlocks) > 0 {
		out += fmt.Sprintf(" skipped_blocks=%d skipped_tuples=%d", len(s.SkippedBlocks), s.SkippedTuples)
	}
	return out
}

// FaultReport accumulates fault events across a training run. It is safe for
// concurrent use: pipelined refills and parallel workers report into one
// instance.
type FaultReport struct {
	mu          sync.Mutex
	transient   int64
	retries     int64
	backoff     time.Duration
	quarantined map[int]bool
	skippedTup  int
}

// NewFaultReport returns an empty report.
func NewFaultReport() *FaultReport { return &FaultReport{} }

func (r *FaultReport) addTransient() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.transient++
	r.mu.Unlock()
}

func (r *FaultReport) addRetry(wait time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.retries++
	r.backoff += wait
	r.mu.Unlock()
}

// quarantine marks block i (holding tuples tuples) as skipped, returning the
// total skipped-tuple count and whether the block was newly quarantined.
func (r *FaultReport) quarantine(i, tuples int) (total int, fresh bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.quarantined == nil {
		r.quarantined = make(map[int]bool)
	}
	if !r.quarantined[i] {
		r.quarantined[i] = true
		r.skippedTup += tuples
		fresh = true
	}
	return r.skippedTup, fresh
}

func (r *FaultReport) isQuarantined(i int) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.quarantined[i]
}

// Summary snapshots the report.
func (r *FaultReport) Summary() FaultSummary {
	if r == nil {
		return FaultSummary{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := FaultSummary{
		TransientErrors: r.transient,
		Retries:         r.retries,
		BackoffSeconds:  r.backoff.Seconds(),
		SkippedTuples:   r.skippedTup,
	}
	for i := range r.quarantined {
		s.SkippedBlocks = append(s.SkippedBlocks, i)
	}
	sort.Ints(s.SkippedBlocks)
	return s
}

// resilientSource wraps a Source with retry/backoff on transient errors and
// an optional quarantine-and-continue policy for permanent corruption.
// Quarantine persists across epochs: once a block is skipped it stays
// skipped, so every later epoch sees the same (degraded) dataset.
type resilientSource struct {
	src    Source
	res    Resilience
	reg    *obs.Registry
	report *FaultReport
}

// NewResilientSource wraps src with the given resilience configuration,
// reporting fault events to reg (under the obs.Storage* names) and into
// report. A nil report allocates a fresh one; the (possibly shared) report
// is returned alongside the wrapped source. When src is a FullShuffler the
// wrapper is too. A disabled configuration returns src unchanged.
func NewResilientSource(src Source, res Resilience, reg *obs.Registry, report *FaultReport) (Source, *FaultReport) {
	if report == nil {
		report = NewFaultReport()
	}
	if !res.Enabled() {
		return src, report
	}
	rs := &resilientSource{src: src, res: res, reg: reg, report: report}
	if fs, ok := src.(FullShuffler); ok {
		return &resilientFull{resilientSource: rs, full: fs}, report
	}
	return rs, report
}

func (r *resilientSource) NumBlocks() int        { return r.src.NumBlocks() }
func (r *resilientSource) NumTuples() int        { return r.src.NumTuples() }
func (r *resilientSource) BlockTuples(i int) int { return r.src.BlockTuples(i) }
func (r *resilientSource) Clock() *iosim.Clock   { return r.src.Clock() }

// ReadBlock reads block i through the retry policy. A quarantined block
// yields an empty tuple slice (every iterator tolerates empty blocks), so
// the stream simply flows past the lost data.
func (r *resilientSource) ReadBlock(i int) ([]data.Tuple, error) {
	if r.report.isQuarantined(i) {
		return nil, nil
	}
	var tuples []data.Tuple
	err := r.res.Retry.Do(r.res.Ctx, r.src.Clock(), func(wait time.Duration) {
		r.report.addRetry(wait)
		r.reg.Inc(obs.StorageRetries)
		r.reg.AddDuration(obs.StorageBackoffNanos, wait)
	}, func() error {
		var e error
		tuples, e = r.src.ReadBlock(i)
		if e != nil && storage.IsTransient(e) {
			r.report.addTransient()
		}
		return e
	})
	if err == nil {
		return tuples, nil
	}
	if r.res.OnCorrupt == SkipCorrupt && errors.Is(err, storage.ErrCorrupt) {
		return r.skip(i, err)
	}
	return nil, err
}

// skip quarantines block i, enforcing the skipped-tuple cap.
func (r *resilientSource) skip(i int, cause error) ([]data.Tuple, error) {
	tuples := r.src.BlockTuples(i)
	total, fresh := r.report.quarantine(i, tuples)
	if fresh {
		r.reg.Inc(obs.StorageSkippedBlocks)
		r.reg.Add(obs.StorageSkippedTuples, int64(tuples))
	}
	if frac := float64(total) / float64(max(r.src.NumTuples(), 1)); frac > r.res.skipCap() {
		return nil, fmt.Errorf("shuffle: %.1f%% of tuples quarantined (cap %.1f%%): %w (last: %w)",
			100*frac, 100*r.res.skipCap(), ErrSkipBudget, cause)
	}
	return nil, nil
}

// resilientFull extends resilientSource with FullShuffler passthrough, so
// Shuffle Once and Epoch Shuffle stay available behind the wrapper. The
// shuffled copy shares the same resilience configuration and fault report.
type resilientFull struct {
	*resilientSource
	full FullShuffler
}

func (r *resilientFull) ShuffledCopy(rng *rand.Rand) (Source, error) {
	shuf, err := r.full.ShuffledCopy(rng)
	if err != nil {
		return nil, err
	}
	// The copy inherits the shared report (and with it the quarantine set);
	// the original source is not read again once the copy exists, so the
	// block indices cannot collide in practice.
	wrapped, _ := NewResilientSource(shuf, r.res, r.reg, r.report)
	return wrapped, nil
}

func (r *resilientFull) ChargeFullShuffle() { r.full.ChargeFullShuffle() }
