package shuffle

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/storage"
)

// corruptSource fails chosen blocks permanently with storage.ErrCorrupt.
type corruptSource struct {
	Source
	bad map[int]bool
}

func (c *corruptSource) ReadBlock(i int) ([]data.Tuple, error) {
	if c.bad[i] {
		return nil, fmt.Errorf("injected: %w", storage.ErrCorrupt)
	}
	return c.Source.ReadBlock(i)
}

// blinkSource fails each block's first failures reads transiently, then
// serves it. It is safe for concurrent use (pipelined refills).
type blinkSource struct {
	Source
	mu       sync.Mutex
	failures int
	left     map[int]int
}

func newBlink(src Source, failures int) *blinkSource {
	return &blinkSource{Source: src, failures: failures, left: make(map[int]int)}
}

func (b *blinkSource) ReadBlock(i int) ([]data.Tuple, error) {
	b.mu.Lock()
	n, seen := b.left[i]
	if !seen {
		n = b.failures
	}
	if n > 0 {
		b.left[i] = n - 1
		b.mu.Unlock()
		return nil, fmt.Errorf("blink block %d: %w", i, iosim.ErrTransient)
	}
	b.left[i] = 0
	b.mu.Unlock()
	return b.Source.ReadBlock(i)
}

func TestResilientDisabledPassthrough(t *testing.T) {
	src := clusteredSource(100, 10)
	wrapped, report := NewResilientSource(src, Resilience{}, nil, nil)
	if wrapped != Source(src) {
		t.Fatal("disabled resilience must return the source unchanged")
	}
	if report == nil || report.Summary().String() != "clean" {
		t.Fatalf("want fresh clean report, got %+v", report.Summary())
	}
}

func TestResilientPreservesFullShuffler(t *testing.T) {
	src := clusteredSource(100, 10)
	wrapped, _ := NewResilientSource(src, Resilience{OnCorrupt: SkipCorrupt}, nil, nil)
	if _, ok := wrapped.(FullShuffler); !ok {
		t.Fatal("wrapping a FullShuffler must preserve the interface")
	}
	plain, _ := NewResilientSource(&corruptSource{Source: src}, Resilience{OnCorrupt: SkipCorrupt}, nil, nil)
	if _, ok := plain.(FullShuffler); ok {
		t.Fatal("wrapping a plain Source must not invent FullShuffler")
	}
}

func TestTransientStormWithinBudgetSameStream(t *testing.T) {
	const n, perBlock = 300, 20
	clean := clusteredSource(n, perBlock)
	stClean, err := New(KindCorgiPile, clean, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	itClean, err := stClean.StartEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, itClean)

	clock := iosim.NewClock()
	flaky := newBlink(clusteredSource(n, perBlock).WithClock(clock, 0), 2)
	src, report := NewResilientSource(flaky, Resilience{Retry: storage.RetryPolicy{
		MaxAttempts: 4, Backoff: time.Millisecond, Seed: 9}}, nil, nil)
	st, err := New(KindCorgiPile, src, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	it, err := st.StartEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	if it.Err() != nil {
		t.Fatalf("storm within budget must not surface: %v", it.Err())
	}
	if len(got) != len(want) {
		t.Fatalf("stream length %d, fault-free %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("stream diverged at %d: %d vs %d", i, got[i], want[i])
		}
	}
	s := report.Summary()
	if s.TransientErrors == 0 || s.Retries == 0 {
		t.Fatalf("report missed the storm: %+v", s)
	}
	if clock.Now() == 0 {
		t.Fatal("backoff must charge the simulated clock")
	}
	if s.Degraded() {
		t.Fatal("transient-only storm must not quarantine anything")
	}
}

// drainAll exhausts an iterator without asserting on its error.
func drainAll(it Iterator) {
	for {
		if _, ok := it.Next(); !ok {
			return
		}
	}
}

func TestTransientStormBeyondBudgetFails(t *testing.T) {
	flaky := newBlink(clusteredSource(100, 10), 5)
	src, _ := NewResilientSource(flaky, Resilience{Retry: storage.RetryPolicy{MaxAttempts: 3}}, nil, nil)
	st, err := New(KindCorgiPile, src, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	it, err := st.StartEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	drainAll(it)
	if !errors.Is(it.Err(), iosim.ErrTransient) {
		t.Fatalf("exhausted budget should surface ErrTransient, got %v", it.Err())
	}
}

func TestSkipCorruptQuarantinesAcrossEpochs(t *testing.T) {
	const n, perBlock = 300, 20 // 15 blocks; one bad block is 6.7% > default cap
	bad := &corruptSource{Source: clusteredSource(n, perBlock), bad: map[int]bool{3: true}}
	src, report := NewResilientSource(bad, Resilience{OnCorrupt: SkipCorrupt, MaxSkipFraction: 0.10}, nil, nil)
	st, err := New(KindCorgiPile, src, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		it, err := st.StartEpoch(epoch)
		if err != nil {
			t.Fatal(err)
		}
		ids := drain(t, it)
		if it.Err() != nil {
			t.Fatalf("epoch %d: SkipCorrupt must keep training: %v", epoch, it.Err())
		}
		if len(ids) != n-perBlock {
			t.Fatalf("epoch %d: got %d tuples, want %d (one block skipped)", epoch, len(ids), n-perBlock)
		}
		for _, id := range ids {
			if id >= 60 && id < 80 { // block 3 holds IDs [60,80)
				t.Fatalf("epoch %d: quarantined tuple %d appeared", epoch, id)
			}
		}
	}
	s := report.Summary()
	if len(s.SkippedBlocks) != 1 || s.SkippedBlocks[0] != 3 || s.SkippedTuples != perBlock {
		t.Fatalf("quarantine accounting wrong: %+v", s)
	}
	if !s.Degraded() {
		t.Fatal("quarantined run must report Degraded")
	}
}

func TestSkipCorruptBudgetCap(t *testing.T) {
	bad := &corruptSource{Source: clusteredSource(300, 20),
		bad: map[int]bool{1: true, 2: true, 3: true, 4: true}}
	src, _ := NewResilientSource(bad, Resilience{
		OnCorrupt:       SkipCorrupt,
		MaxSkipFraction: 0.10, // 4 bad blocks = 26.7% >> 10%
	}, nil, nil)
	st, err := New(KindCorgiPile, src, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	it, err := st.StartEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	drainAll(it)
	if !errors.Is(it.Err(), ErrSkipBudget) {
		t.Fatalf("want ErrSkipBudget, got %v", it.Err())
	}
	if !errors.Is(it.Err(), storage.ErrCorrupt) {
		t.Fatalf("budget error should still expose the corrupt cause: %v", it.Err())
	}
}

func TestFailFastSurfacesCorrupt(t *testing.T) {
	bad := &corruptSource{Source: clusteredSource(100, 10), bad: map[int]bool{2: true}}
	// Retry enabled so the wrapper engages; OnCorrupt stays FailFast.
	src, _ := NewResilientSource(bad, Resilience{Retry: storage.RetryPolicy{MaxAttempts: 2}}, nil, nil)
	st, err := New(KindCorgiPile, src, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	it, err := st.StartEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	drainAll(it)
	if !errors.Is(it.Err(), storage.ErrCorrupt) {
		t.Fatalf("FailFast must surface ErrCorrupt, got %v", it.Err())
	}
}

func TestParseFailurePolicy(t *testing.T) {
	for s, want := range map[string]FailurePolicy{
		"": FailFast, "fail": FailFast, "fail_fast": FailFast,
		"skip": SkipCorrupt, "skip_corrupt": SkipCorrupt,
	} {
		got, err := ParseFailurePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseFailurePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFailurePolicy("explode"); err == nil {
		t.Fatal("unknown policy must error")
	}
	if FailFast.String() != "fail" || SkipCorrupt.String() != "skip" {
		t.Fatal("String round trip broken")
	}
}

func TestFaultSummaryString(t *testing.T) {
	if (FaultSummary{}).String() != "clean" {
		t.Fatal("empty summary must read clean")
	}
	s := FaultSummary{TransientErrors: 3, Retries: 2, BackoffSeconds: 0.004,
		SkippedBlocks: []int{5}, SkippedTuples: 20}
	out := s.String()
	for _, want := range []string{"transient=3", "retries=2", "skipped_blocks=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary %q missing %q", out, want)
		}
	}
}

// A table whose decoded image is warm answers a fault plan exactly as a cold
// copy of it does: the image spares the decode, never the read. Transient
// errors, stragglers and an injected corrupt block draw from the plan in the
// same order, so errors, retries, the quarantine set, the device's counters
// and the simulated clock all agree — under SkipCorrupt, where training runs
// on past the bad block, and under FailFast, where its error ends the epoch.
func TestWarmImageKeepsFaultBehaviour(t *testing.T) {
	plan := iosim.FaultPlan{Seed: 5, ReadErrorProb: 0.15, ErrorBurst: 2,
		StragglerProb: 0.1, StragglerDelay: 3 * time.Millisecond, CorruptBlocks: []int{4}}
	for _, policy := range []FailurePolicy{SkipCorrupt, FailFast} {
		for _, compress := range []bool{false, true} {
			observe := func(warm bool) string {
				ds := data.SyntheticBinary(data.SyntheticConfig{
					Tuples: 600, Features: 6, Order: data.OrderClustered, Seed: 31})
				dev := iosim.NewDevice(iosim.HDD, iosim.NewClock()).WithFaults(plan)
				tab, err := storage.Build(dev, ds, storage.Options{BlockSize: 2 << 10, Compress: compress})
				if err != nil {
					t.Fatal(err)
				}
				if warm {
					if _, err := tab.DecodeAll(); err != nil {
						t.Fatal(err)
					}
					if s := dev.Stats(); s.Reads != 0 || dev.Clock().Now() != 0 {
						t.Fatalf("warming the image charged the device: %+v at %v", s, dev.Clock().Now())
					}
				}
				src, report := NewResilientSource(TableSource(tab), Resilience{OnCorrupt: policy, MaxSkipFraction: 0.2,
					Retry: storage.RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond, Seed: 9}}, nil, nil)
				st, err := New(KindCorgiPile, src, Options{Seed: 9, BufferFraction: 0.2, DoubleBuffer: true})
				if err != nil {
					t.Fatal(err)
				}
				var out strings.Builder
				for epoch := 0; epoch < 2; epoch++ {
					it, err := st.StartEpoch(epoch)
					if err != nil {
						t.Fatal(err)
					}
					n, ids := 0, int64(0)
					for tp, ok := it.Next(); ok; tp, ok = it.Next() {
						n, ids = n+1, ids*31+tp.ID
					}
					fmt.Fprintf(&out, "epoch %d: %d tuples ids %x err %v\n", epoch, n, ids, it.Err())
				}
				fmt.Fprintf(&out, "%+v\n%+v\nclock %v", report.Summary(), dev.Stats(), dev.Clock().Now())
				return out.String()
			}
			cold, warm := observe(false), observe(true)
			if cold != warm {
				t.Errorf("policy %v compress %v\ncold: %s\nwarm: %s", policy, compress, cold, warm)
			}
			want := map[FailurePolicy]string{SkipCorrupt: "skipped_blocks=1", FailFast: "block 4: storage: corrupt data: block checksum mismatch"}[policy]
			if !strings.Contains(cold, want) || !strings.Contains(cold, "retries=") {
				t.Errorf("policy %v: the plan injected too little to compare:\n%s", policy, cold)
			}
		}
	}
}
