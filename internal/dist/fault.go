package dist

// This file implements worker-crash injection for distributed training: a
// deterministic per-epoch crash schedule, crash detection at the
// synchronization barrier, and batch-share redistribution across the
// surviving workers.

import (
	"errors"
	"math/rand"
	"time"
)

// ErrWorkerLost reports that distributed training could not absorb injected
// worker crashes: either every worker of an epoch died, or the total crash
// count exceeded FaultPlan.MaxCrashes.
var ErrWorkerLost = errors.New("dist: worker lost")

// FaultPlan configures deterministic worker-crash injection. All randomness
// derives from Seed: a fixed plan yields the same crash schedule — and
// therefore the same loss trace and simulated clock — on every run.
//
// A crashed worker stops contributing mid-epoch; the crash is detected at
// the next synchronization barrier (charging DetectTimeout of simulated
// time), after which the global batch is redistributed over the surviving
// workers so every optimizer step still consumes GlobalBatch tuples. The
// crashed worker's unread data is lost for that epoch only: workers rejoin
// at the next epoch's block redistribution.
type FaultPlan struct {
	// Seed seeds the crash schedule (0 behaves like 1).
	Seed int64
	// CrashProb is the per-worker, per-epoch probability of crashing.
	CrashProb float64
	// DetectTimeout is the simulated time one crash adds to the epoch's
	// synchronization cost — the AllReduce timeout that exposes the dead
	// worker (default 100ms).
	DetectTimeout time.Duration
	// MaxCrashes, when positive, aborts training with ErrWorkerLost once
	// more than this many crashes have occurred across all epochs.
	MaxCrashes int
}

// Enabled reports whether the plan can inject anything.
func (p FaultPlan) Enabled() bool { return p.CrashProb > 0 }

// detectTimeout returns the configured detection timeout or its default.
func (p FaultPlan) detectTimeout() time.Duration {
	if p.DetectTimeout > 0 {
		return p.DetectTimeout
	}
	return 100 * time.Millisecond
}

// scheduleCrashes draws the epoch's deterministic crash schedule. Exactly
// two random draws are consumed per worker regardless of the outcome, so
// the schedule of worker i is independent of the other workers' fates and
// stable across runs with the same fault seed.
func (s *stream) scheduleCrashes() {
	plan := s.cfg.Faults
	if plan == nil || !plan.Enabled() {
		return
	}
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed + int64(s.epoch)*104729))
	for _, wk := range s.workers {
		crash := rng.Float64() < plan.CrashProb
		frac := rng.Float64()
		if crash {
			// The crash point is a fraction of the worker's epoch share, so
			// crashes land anywhere from the first batch to the last.
			wk.crashAt = int(frac * float64(wk.cur.NumTuples()))
		}
	}
}
