package shuffle

import (
	"testing"

	"corgipile/internal/data"
)

// clusteredSource returns an in-memory clustered binary dataset split into
// blocks of perBlock tuples.
func clusteredSource(n, perBlock int) *MemSource {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: n, Features: 4, Order: data.OrderClustered, Seed: 21})
	return NewMemSource(ds, perBlock)
}

// drain collects an epoch's tuple IDs.
func drain(t *testing.T, it Iterator) []int64 {
	t.Helper()
	var ids []int64
	for {
		tp, ok := it.Next()
		if !ok {
			break
		}
		ids = append(ids, tp.ID)
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator error: %v", err)
	}
	return ids
}

// assertPermutation checks that ids is exactly a permutation of 0..n-1.
func assertPermutation(t *testing.T, ids []int64, n int) {
	t.Helper()
	if len(ids) != n {
		t.Fatalf("epoch emitted %d tuples, want %d", len(ids), n)
	}
	seen := make([]bool, n)
	for _, id := range ids {
		if id < 0 || id >= int64(n) {
			t.Fatalf("id %d out of range", id)
		}
		if seen[id] {
			t.Fatalf("id %d emitted twice", id)
		}
		seen[id] = true
	}
}

// allKinds lists every strategy in presentation order.
var allKinds = []Kind{
	KindNoShuffle, KindShuffleOnce, KindEpochShuffle,
	KindSlidingWindow, KindMRS, KindBlockOnly, KindCorgiPile,
}

// Strategies that visit every tuple exactly once per epoch.
var exactlyOnceKinds = []Kind{
	KindNoShuffle, KindShuffleOnce, KindEpochShuffle,
	KindSlidingWindow, KindBlockOnly, KindCorgiPile,
}

func TestStrategiesEmitExactlyOncePerEpoch(t *testing.T) {
	const n = 500
	for _, kind := range exactlyOnceKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			src := clusteredSource(n, 25)
			st, err := New(kind, src, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for epoch := 0; epoch < 3; epoch++ {
				it, err := st.StartEpoch(epoch)
				if err != nil {
					t.Fatal(err)
				}
				ids := drain(t, it)
				if kind == KindShuffleOnce || kind == KindEpochShuffle {
					// IDs were renumbered by the shuffled copy for Shuffle
					// Once; both still visit n distinct tuples.
					assertPermutation(t, ids, n)
				} else {
					assertPermutation(t, ids, n)
				}
			}
		})
	}
}

func TestMRSCoversAllTuplesAndLoops(t *testing.T) {
	const n = 400
	src := clusteredSource(n, 20)
	st, err := New(KindMRS, src, Options{Seed: 2, BufferFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 0: loop buffer empty, exactly one pass.
	it, _ := st.StartEpoch(0)
	ids := drain(t, it)
	assertPermutation(t, ids, n)

	// Epoch 1: loop buffer non-empty → some tuples repeat (data skew the
	// paper describes), but every tuple still appears at least once.
	it, _ = st.StartEpoch(1)
	ids = drain(t, it)
	if len(ids) <= n {
		t.Fatalf("epoch 1 emitted %d tuples, want > %d (loop multiplexing)", len(ids), n)
	}
	seen := make(map[int64]int)
	for _, id := range ids {
		seen[id]++
	}
	if len(seen) != n {
		t.Fatalf("epoch 1 covered %d distinct tuples, want %d", len(seen), n)
	}
	repeats := 0
	for _, c := range seen {
		if c > 1 {
			repeats++
		}
	}
	if repeats == 0 {
		t.Fatal("MRS loop thread emitted no repeated tuples")
	}
}

func TestNoShuffleKeepsOrder(t *testing.T) {
	src := clusteredSource(100, 10)
	st, _ := New(KindNoShuffle, src, Options{Seed: 3})
	it, _ := st.StartEpoch(0)
	ids := drain(t, it)
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("no-shuffle emitted id %d at position %d", id, i)
		}
	}
}

func TestBlockOnlyKeepsWithinBlockOrder(t *testing.T) {
	src := clusteredSource(100, 10)
	st, _ := New(KindBlockOnly, src, Options{Seed: 4})
	it, _ := st.StartEpoch(0)
	ids := drain(t, it)
	// Within each run of 10, ids must be consecutive ascending.
	shuffledBlocks := false
	for b := 0; b < 10; b++ {
		run := ids[b*10 : (b+1)*10]
		for i := 1; i < 10; i++ {
			if run[i] != run[i-1]+1 {
				t.Fatalf("block-only broke within-block order: %v", run)
			}
		}
		if run[0] != int64(b*10) {
			shuffledBlocks = true
		}
	}
	if !shuffledBlocks {
		t.Fatal("block-only left blocks in identity order (astronomically unlikely)")
	}
}

func TestCorgiPileShufflesWithinBuffer(t *testing.T) {
	src := clusteredSource(200, 10) // 20 blocks
	st, _ := New(KindCorgiPile, src, Options{Seed: 5, BufferFraction: 0.25})
	it, _ := st.StartEpoch(0)
	ids := drain(t, it)
	assertPermutation(t, ids, 200)
	// A buffer holds 5 blocks = 50 tuples; within the first 50 emissions the
	// ids must NOT be block-contiguous (tuple-level shuffle happened).
	contiguous := 0
	for i := 1; i < 50; i++ {
		if ids[i] == ids[i-1]+1 {
			contiguous++
		}
	}
	if contiguous > 25 {
		t.Fatalf("first buffer looks unshuffled: %d/49 contiguous pairs", contiguous)
	}
}

func TestCorgiPileEpochsDiffer(t *testing.T) {
	src := clusteredSource(200, 10)
	st, _ := New(KindCorgiPile, src, Options{Seed: 6})
	it0, _ := st.StartEpoch(0)
	it1, _ := st.StartEpoch(1)
	a, b := drain(t, it0), drain(t, it1)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two CorgiPile epochs produced identical orders")
	}
}

func TestStrategiesDeterministicAcrossRuns(t *testing.T) {
	for _, kind := range allKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run := func() []int64 {
				src := clusteredSource(300, 20)
				st, err := New(kind, src, Options{Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				it, err := st.StartEpoch(0)
				if err != nil {
					t.Fatal(err)
				}
				return drain(t, it)
			}
			a, b := run(), run()
			if len(a) != len(b) {
				t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
				}
			}
		})
	}
}

func TestShuffleOnceActuallyShuffles(t *testing.T) {
	src := clusteredSource(300, 20)
	st, _ := New(KindShuffleOnce, src, Options{Seed: 8})
	it, _ := st.StartEpoch(0)
	// Shuffle Once renumbers IDs on the shuffled copy, so look at labels:
	// a clustered dataset has all -1 first; the shuffled copy must not.
	var labels []float64
	for {
		tp, ok := it.Next()
		if !ok {
			break
		}
		labels = append(labels, tp.Label)
	}
	firstHalfPos := 0
	for _, l := range labels[:150] {
		if l > 0 {
			firstHalfPos++
		}
	}
	if firstHalfPos < 30 {
		t.Fatalf("shuffle-once first half has only %d positives; not shuffled", firstHalfPos)
	}
}

func TestShuffleOnceEpochsIdentical(t *testing.T) {
	src := clusteredSource(200, 10)
	st, _ := New(KindShuffleOnce, src, Options{Seed: 9})
	a := drain(t, mustIter(t, st, 0))
	b := drain(t, mustIter(t, st, 1))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("shuffle-once must reuse the same order every epoch")
		}
	}
}

func TestEpochShuffleEpochsDiffer(t *testing.T) {
	src := clusteredSource(200, 10)
	st, _ := New(KindEpochShuffle, src, Options{Seed: 10})
	a := drain(t, mustIter(t, st, 0))
	b := drain(t, mustIter(t, st, 1))
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("epoch-shuffle must reshuffle every epoch")
	}
}

func mustIter(t *testing.T, st Strategy, epoch int) Iterator {
	t.Helper()
	it, err := st.StartEpoch(epoch)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func TestUnknownKindErrors(t *testing.T) {
	if _, err := New("quantum", clusteredSource(10, 2), Options{}); err == nil {
		t.Fatal("unknown strategy must error")
	}
}

func TestStrategyNames(t *testing.T) {
	src := clusteredSource(50, 5)
	for _, kind := range allKinds {
		st, err := New(kind, src, Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if st.Name() != kind {
			t.Fatalf("Name() = %q, want %q", st.Name(), kind)
		}
	}
}

func TestMemSourceBlocks(t *testing.T) {
	src := clusteredSource(95, 10)
	if src.NumBlocks() != 10 {
		t.Fatalf("NumBlocks = %d, want 10", src.NumBlocks())
	}
	if src.BlockTuples(9) != 5 {
		t.Fatalf("last block tuples = %d, want 5", src.BlockTuples(9))
	}
	total := 0
	for i := 0; i < src.NumBlocks(); i++ {
		total += src.BlockTuples(i)
	}
	if total != 95 {
		t.Fatalf("block tuples sum = %d, want 95", total)
	}
}

func TestCorgiPileSampleOnlyEpoch(t *testing.T) {
	// Algorithm 1 mode: an epoch emits exactly one buffer's worth (n·b
	// tuples) sampled without replacement.
	src := clusteredSource(400, 20) // 20 blocks of 20
	st, err := New(KindCorgiPile, src, Options{Seed: 12, BufferFraction: 0.25, SampleOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	it, _ := st.StartEpoch(0)
	ids := drain(t, it)
	if len(ids) != 100 { // 5 blocks × 20 tuples
		t.Fatalf("sample-only epoch emitted %d tuples, want 100", len(ids))
	}
	seen := map[int64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("tuple %d sampled twice within an epoch", id)
		}
		seen[id] = true
	}
	// Across epochs the union grows: different blocks get sampled.
	it2, _ := st.StartEpoch(1)
	ids2 := drain(t, it2)
	union := map[int64]bool{}
	for _, id := range append(ids, ids2...) {
		union[id] = true
	}
	if len(union) <= 100 {
		t.Fatal("second epoch sampled the identical blocks (astronomically unlikely)")
	}
}

func TestCorgiPileSampleOnlyStillConverges(t *testing.T) {
	// Enough sample-only epochs cover the data and train the model — the
	// setting of Theorem 1 with T = S·n·b.
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 4000, Features: 10, Separation: 3, Order: data.OrderClustered, Seed: 13})
	src := NewMemSource(ds, 40)
	st, err := New(KindCorgiPile, src, Options{Seed: 14, BufferFraction: 0.2, SampleOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 11)
	lr := 0.02
	correctStream := 0
	total := 0
	for epoch := 0; epoch < 25; epoch++ {
		it, _ := st.StartEpoch(epoch)
		for {
			tp, ok := it.Next()
			if !ok {
				break
			}
			margin := tp.Dot(w[:10]) + w[10]
			if (margin >= 0) == (tp.Label >= 0) {
				correctStream++
			}
			total++
			if tp.Label*margin < 1 {
				for j, v := range tp.Dense {
					w[j] += lr * tp.Label * v
				}
				w[10] += lr * tp.Label
			}
		}
	}
	lateAcc := float64(correctStream) / float64(total)
	if lateAcc < 0.8 {
		t.Fatalf("sample-only training streaming accuracy %.3f < 0.8", lateAcc)
	}
}
