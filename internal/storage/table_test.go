package storage

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
)

func testDataset(n, features int) *data.Dataset {
	return data.SyntheticBinary(data.SyntheticConfig{
		Tuples: n, Features: features, Order: data.OrderClustered, Seed: 11})
}

func buildTable(t *testing.T, ds *data.Dataset, opts Options) (*Table, *iosim.Clock) {
	t.Helper()
	clock := iosim.NewClock()
	dev := iosim.NewDevice(iosim.SSD, clock)
	tab, err := Build(dev, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tab, clock
}

func TestBuildAndScanAllRoundTrip(t *testing.T) {
	ds := testDataset(500, 8)
	tab, _ := buildTable(t, ds, Options{BlockSize: 4 << 10})
	got, err := tab.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != ds.Len() {
		t.Fatalf("scanned %d tuples, want %d", len(got), ds.Len())
	}
	for i := range got {
		if got[i].ID != ds.Tuples[i].ID || got[i].Label != ds.Tuples[i].Label {
			t.Fatalf("tuple %d mismatch: %v vs %v", i, got[i], ds.Tuples[i])
		}
		for j := range got[i].Dense {
			if got[i].Dense[j] != ds.Tuples[i].Dense[j] {
				t.Fatalf("tuple %d feature %d mismatch", i, j)
			}
		}
	}
}

func TestBlockSizing(t *testing.T) {
	ds := testDataset(1000, 8) // each tuple 21+64=85 bytes
	tab, _ := buildTable(t, ds, Options{BlockSize: 1 << 12})
	if tab.NumBlocks() < 10 {
		t.Fatalf("expected many blocks, got %d", tab.NumBlocks())
	}
	total := 0
	for i := 0; i < tab.NumBlocks(); i++ {
		total += tab.BlockTuples(i)
	}
	if total != ds.Len() {
		t.Fatalf("block tuple counts sum to %d, want %d", total, ds.Len())
	}
	if tab.NumTuples() != ds.Len() {
		t.Fatalf("NumTuples = %d, want %d", tab.NumTuples(), ds.Len())
	}
}

// A block size no larger than the block header still puts one tuple in
// each block, on Build and on AppendTuples alike.
func TestTinyBlockSizeOneTuplePerBlock(t *testing.T) {
	ds := testDataset(30, 4)
	tab, _ := buildTable(t, ds, Options{BlockSize: 16})
	raws, err := tab.AppendTuples(ds.Tuples[:10])
	if err != nil {
		t.Fatal(err)
	}
	if len(raws) != 10 {
		t.Fatalf("AppendTuples returned %d blocks, want 10", len(raws))
	}
	if tab.NumBlocks() != 40 || tab.NumTuples() != 40 {
		t.Fatalf("%d blocks / %d tuples, want 40 / 40", tab.NumBlocks(), tab.NumTuples())
	}
	for i := 0; i < tab.NumBlocks(); i++ {
		if n := tab.BlockTuples(i); n != 1 {
			t.Fatalf("block %d holds %d tuples, want 1", i, n)
		}
	}
}

func TestBlocksPageAligned(t *testing.T) {
	ds := testDataset(400, 8)
	tab, _ := buildTable(t, ds, Options{BlockSize: 1 << 12, PageSize: 1 << 10})
	for i, m := range tab.meta {
		if m.Len%(1<<10) != 0 {
			t.Fatalf("block %d length %d not page aligned", i, m.Len)
		}
		if m.Offset%(1<<10) != 0 {
			t.Fatalf("block %d offset %d not page aligned", i, m.Offset)
		}
	}
}

func TestReadBlockChargesIO(t *testing.T) {
	ds := testDataset(1000, 32)
	tab, clock := buildTable(t, ds, Options{BlockSize: 8 << 10})
	before := clock.Now()
	if _, err := tab.ReadBlock(0); err != nil {
		t.Fatal(err)
	}
	if clock.Now() <= before {
		t.Fatal("ReadBlock did not advance the clock")
	}
}

func TestBuildDoesNotChargeByDefault(t *testing.T) {
	ds := testDataset(200, 8)
	_, clock := buildTable(t, ds, Options{})
	if clock.Now() != 0 {
		t.Fatalf("build charged %v without ChargeBuild", clock.Now())
	}
}

func TestBuildChargesWhenAsked(t *testing.T) {
	ds := testDataset(200, 8)
	_, clock := buildTable(t, ds, Options{ChargeBuild: true})
	if clock.Now() == 0 {
		t.Fatal("ChargeBuild did not charge the clock")
	}
}

func TestReadBlockOutOfRange(t *testing.T) {
	ds := testDataset(100, 4)
	tab, _ := buildTable(t, ds, Options{})
	if _, err := tab.ReadBlock(-1); err == nil {
		t.Fatal("negative block index should error")
	}
	if _, err := tab.ReadBlock(tab.NumBlocks()); err == nil {
		t.Fatal("out-of-range block index should error")
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	ds := testDataset(300, 64)
	tab, _ := buildTable(t, ds, Options{BlockSize: 16 << 10, Compress: true})
	got, err := tab.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != ds.Len() {
		t.Fatalf("compressed scan returned %d tuples, want %d", len(got), ds.Len())
	}
	for i := range got {
		if got[i].Label != ds.Tuples[i].Label {
			t.Fatalf("tuple %d label mismatch after compression", i)
		}
	}
}

func TestCompressedReadSlowerPerRawByte(t *testing.T) {
	// With a very low decompress rate, the compressed table's read time
	// must be dominated by decompression.
	ds := testDataset(500, 128)
	clock := iosim.NewClock()
	dev := iosim.NewDevice(iosim.SSD, clock)
	tab, err := Build(dev, ds, Options{BlockSize: 64 << 10, Compress: true, DecompressRate: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.ScanAll(); err != nil {
		t.Fatal(err)
	}
	slowTime := clock.Now()

	clock2 := iosim.NewClock()
	dev2 := iosim.NewDevice(iosim.SSD, clock2)
	tab2, err := Build(dev2, ds, Options{BlockSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab2.ScanAll(); err != nil {
		t.Fatal(err)
	}
	if slowTime <= clock2.Now() {
		t.Fatalf("slow-decompress scan (%v) should exceed plain scan (%v)", slowTime, clock2.Now())
	}
}

func TestSparseTableRoundTrip(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 200, Features: 1000, Sparse: true, NNZ: 10, Order: data.OrderClustered, Seed: 12})
	tab, _ := buildTable(t, ds, Options{BlockSize: 4 << 10})
	got, err := tab.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].NNZ() != 10 {
			t.Fatalf("tuple %d NNZ = %d, want 10", i, got[i].NNZ())
		}
	}
}

func TestShuffleOnceCopy(t *testing.T) {
	ds := testDataset(600, 8)
	tab, clock := buildTable(t, ds, Options{BlockSize: 4 << 10})
	before := clock.Now()
	shuf, err := ShuffleOnceCopy(tab, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now() <= before {
		t.Fatal("ShuffleOnceCopy must charge shuffle I/O")
	}
	if shuf.NumTuples() != tab.NumTuples() {
		t.Fatalf("shuffled copy has %d tuples, want %d", shuf.NumTuples(), tab.NumTuples())
	}
	got, err := shuf.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	// Same multiset of IDs, different order.
	seen := make(map[int64]bool, len(got))
	sameOrder := true
	for i := range got {
		seen[got[i].ID] = true
		if got[i].ID != int64(i) {
			sameOrder = false
		}
	}
	if len(seen) != ds.Len() {
		t.Fatal("shuffled copy lost tuples")
	}
	if sameOrder {
		t.Fatal("shuffled copy is in original order")
	}
}

func TestShuffleOnceCostExceedsScan(t *testing.T) {
	ds := testDataset(2000, 32)
	clockScan := iosim.NewClock()
	devScan := iosim.NewDevice(iosim.HDD, clockScan)
	tabScan, err := Build(devScan, ds, Options{BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tabScan.ScanAll(); err != nil {
		t.Fatal(err)
	}
	scanCost := clockScan.Now()

	clockShuf := iosim.NewClock()
	devShuf := iosim.NewDevice(iosim.HDD, clockShuf)
	tabShuf, err := Build(devShuf, ds, Options{BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = ShuffleOnceCopy(tabShuf, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	if clockShuf.Now() < 2*scanCost {
		t.Fatalf("shuffle once cost %v should be well above one scan %v", clockShuf.Now(), scanCost)
	}
}

func TestTableMetadataAccessors(t *testing.T) {
	ds := testDataset(100, 7)
	tab, _ := buildTable(t, ds, Options{})
	if tab.Task() != data.TaskBinary || tab.Features() != 7 || tab.Classes() != 2 {
		t.Fatalf("metadata wrong: %v/%d/%d", tab.Task(), tab.Features(), tab.Classes())
	}
	if tab.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
	if tab.Device() == nil || tab.Options().BlockSize != 10<<20 {
		t.Fatal("accessors broken")
	}
}

func TestBlockFirstIDs(t *testing.T) {
	ds := testDataset(500, 8)
	tab, _ := buildTable(t, ds, Options{BlockSize: 4 << 10})
	next := int64(0)
	for i, m := range tab.meta {
		if m.FirstID != next {
			t.Fatalf("block %d FirstID = %d, want %d", i, m.FirstID, next)
		}
		next += int64(m.Tuples)
	}
}

// The checksum guards every charged read, not the first one: a byte that rots
// after the image is warm still fails the next ReadBlock.
func TestBlockChecksumDetectsCorruption(t *testing.T) {
	for _, warm := range []bool{false, true} {
		ds := testDataset(300, 8)
		tab, _ := buildTable(t, ds, Options{BlockSize: 4 << 10})
		if warm {
			if _, err := tab.ReadBlock(0); err != nil {
				t.Fatal(err)
			}
		}
		// Flip a byte inside the first block's payload.
		tab.blocks[0][30] ^= 0xFF
		if _, err := tab.ReadBlock(0); err == nil {
			t.Fatalf("warm=%v: corrupted block should fail its checksum", warm)
		} else if !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("warm=%v: error %v should mention checksum", warm, err)
		}
		// Other blocks stay readable.
		if _, err := tab.ReadBlock(1); err != nil {
			t.Fatalf("warm=%v: unrelated block failed: %v", warm, err)
		}
	}
}

func TestBlockChecksumCompressed(t *testing.T) {
	for _, warm := range []bool{false, true} {
		ds := testDataset(300, 16)
		tab, _ := buildTable(t, ds, Options{BlockSize: 8 << 10, Compress: true})
		if warm {
			if _, err := tab.DecodeAll(); err != nil {
				t.Fatal(err)
			}
		}
		tab.blocks[0][26] ^= 0x01
		if _, err := tab.ReadBlock(0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("warm=%v: corrupted compressed block read gave %v, want ErrCorrupt", warm, err)
		}
	}
}

// A block is decoded once, into the table's image: the first read of a fresh
// table allocates the image and the block's feature arena however many
// tuples the block holds, and every later read of it allocates nothing.
func TestReadBlockAllocsIndependentOfTupleCount(t *testing.T) {
	const runs = 5
	for _, perBlock := range []int{8, 800} {
		ds := testDataset(perBlock, 6)
		for _, compress := range []bool{false, true} {
			fresh := make([]*Table, runs+1) // AllocsPerRun warms up with one extra call
			for i := range fresh {
				fresh[i], _ = buildTable(t, ds, Options{BlockSize: 1 << 20, Compress: compress})
				if fresh[i].NumBlocks() != 1 {
					t.Fatalf("%d tuples landed in %d blocks, want 1", perBlock, fresh[i].NumBlocks())
				}
			}
			next := 0
			cold := testing.AllocsPerRun(runs, func() {
				if _, err := fresh[next].ReadBlock(0); err != nil {
					t.Fatal(err)
				}
				next++
			})
			if !compress && cold > 4 { // inflating allocates in compress/flate
				t.Fatalf("the first ReadBlock of a %d-tuple block allocates %v times, want <= 4", perBlock, cold)
			}
			tab := fresh[0]
			warm := testing.AllocsPerRun(20, func() {
				if _, err := tab.ReadBlock(0); err != nil {
					t.Fatal(err)
				}
			})
			if warm != 0 {
				t.Fatalf("compress=%v: a warm ReadBlock of a %d-tuple block allocates %v times, want 0", compress, perBlock, warm)
			}
		}
	}
}

// An append allocates its own block and copies none of the table: the bytes
// one AppendRawBlock allocates are the same onto a 10-block table as onto a
// 2 000-block one.
func TestAppendRawBlockAllocsIndependentOfTableSize(t *testing.T) {
	const runs = 600 // past the point where one growing table-sized slice must grow
	rb := RawBlock{Raw: AppendTuple(nil, &testDataset(1, 6).Tuples[0]), Tuples: 1}
	perAppend := map[int]uint64{}
	for _, blocks := range []int{10, 2000} {
		tab := NewEmpty(iosim.NewDevice(iosim.RAM, iosim.NewClock()), "t", data.TaskBinary, 6, 2, Options{PageSize: 1 << 10})
		appendBlock := func() {
			if err := tab.AppendRawBlock(rb); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < blocks; i++ {
			appendBlock()
		}
		// The block index grows by amortised doubling whatever the table
		// size; give it room so only the append itself is measured.
		const tries = 3 // the runtime's own allocations only ever add
		tab.meta = slices.Grow(tab.meta, tries*runs)
		tab.blocks = slices.Grow(tab.blocks, tries*runs)
		perAppend[blocks] = allocBytesPerRun(runs, appendBlock)
		for i := 1; i < tries; i++ {
			perAppend[blocks] = min(perAppend[blocks], allocBytesPerRun(runs, appendBlock))
		}
	}
	if perAppend[10] != perAppend[2000] || perAppend[10] != 1<<10 {
		t.Fatalf("AppendRawBlock allocates %d bytes onto a 10-block table and %d onto a 2000-block one; want one 1 KiB block each",
			perAppend[10], perAppend[2000])
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one
// call of f allocates, averaged over runs calls.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TruncateBlocks cuts the image with the table, and what is re-appended in a
// cut block's place is what every later reader gets — the cut block's tuples
// stay with whoever read them before, untouched. Block identity cannot be
// told from its index entry: a re-appended block has the offset and the
// first ID of the one it replaces.
func TestImageFollowsTruncateAndReappend(t *testing.T) {
	base := testDataset(200, 6)
	variant := func(k int) []data.Tuple { // one block; same IDs, label k
		ts := make([]data.Tuple, 20)
		for i := range ts {
			ts[i] = data.Tuple{ID: int64(1000 + i), Label: float64(k), Dense: []float64{float64(k), float64(i)}}
		}
		return ts
	}
	allVariant := func(ts []data.Tuple, k int) bool {
		for i := range ts {
			if ts[i].Label != float64(k) || ts[i].Dense[0] != float64(k) || ts[i].ID != int64(1000+i) {
				return false
			}
		}
		return len(ts) == 20
	}
	for _, compress := range []bool{false, true} {
		tab, _ := buildTable(t, base, Options{BlockSize: 4 << 10, Compress: compress})
		n := tab.NumBlocks()
		reappend := func(k int) {
			t.Helper()
			tab.TruncateBlocks(n)
			if _, err := tab.AppendTuples(variant(k)); err != nil {
				t.Fatal(err)
			}
		}
		reappend(0)
		old, err := tab.ReadBlock(n)
		if err != nil || !allVariant(old, 0) {
			t.Fatalf("block %d: %v %v", n, old, err)
		}
		m0 := tab.meta[n]
		reappend(1)
		if m1 := tab.meta[n]; m1.Offset != m0.Offset || m1.FirstID != m0.FirstID || m1.Start != m0.Start {
			t.Fatalf("the re-appended block's index entry %+v differs from %+v: the test lost its point", m1, m0)
		}
		if got, err := tab.ReadBlock(n); err != nil || !allVariant(got, 1) {
			t.Fatalf("ReadBlock after truncate + re-append served %v, %v", got, err)
		}
		if all, err := tab.DecodeAll(); err != nil || len(all) != base.Len()+20 || !allVariant(all[base.Len():], 1) {
			t.Fatalf("DecodeAll after truncate + re-append: %d tuples, %v", len(all), err)
		}
		if !allVariant(old, 0) {
			t.Fatal("a view handed out before the truncate was overwritten")
		}

		// The same under fire: readers of every kind beside a writer that
		// rolls the tail block back and appends another in its place. The
		// writer must read back what it appended, a reader must never see a
		// block that mixes two appends, and -race must stay silent.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					var ts []data.Tuple
					var err error
					switch r {
					case 0:
						ts, err = tab.ReadBlock(n)
					case 1:
						if ts, err = tab.DecodeBlocks(0, tab.NumBlocks()); err == nil && len(ts) > base.Len() {
							ts = ts[base.Len():]
						} else {
							continue
						}
					default:
						if ts, err = tab.DecodeBlocks(n-1, n); err == nil && ts[0].ID >= 1000 {
							t.Errorf("block %d served the tail block's tuples", n-1)
						}
						continue
					}
					if err != nil {
						continue // the block was rolled back under the reader
					}
					if !allVariant(ts, int(ts[0].Label)) {
						t.Errorf("reader %d saw a torn block: %v", r, ts)
						return
					}
				}
			}(r)
		}
		for k := 2; k < 150; k++ {
			reappend(k)
			if got, err := tab.ReadBlock(n); err != nil || !allVariant(got, k) {
				t.Errorf("append %d: read back %v, %v", k, got, err)
				break
			}
		}
		close(stop)
		wg.Wait()
	}
}

// Out-of-band decodes never touch the device clock: not to charge
// decompression, and not to "un-charge" it either — a TRAIN running on the
// same device must keep every nanosecond it charged meanwhile.
func TestUnchargedDecodeLeavesClockAlone(t *testing.T) {
	ds := testDataset(400, 8)
	tab, clock := buildTable(t, ds, Options{BlockSize: 8 << 10, Compress: true})
	stop := make(chan struct{})
	done := make(chan time.Duration)
	go func() { // the concurrent TRAIN: charges the shared clock flat out
		var charged time.Duration
		for {
			select {
			case <-stop:
				done <- charged
				return
			default:
				clock.Advance(time.Microsecond)
				charged += time.Microsecond
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := tab.DecodeAll(); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.RawBlockAt(i % tab.NumBlocks()); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.DecodeBlocks(i%tab.NumBlocks(), tab.NumBlocks()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if charged := <-done; clock.Now() != charged {
		t.Fatalf("clock at %v after a concurrent job charged %v: an uncharged decode moved it", clock.Now(), charged)
	}
}

// DecodeBlocks(from, to) is the matching slice of DecodeAll for every range,
// and rejects ranges outside [0, NumBlocks()].
func TestDecodeBlocksMatchesDecodeAll(t *testing.T) {
	sparse := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 120, Features: 1000, Sparse: true, NNZ: 10, Order: data.OrderClustered, Seed: 12})
	for name, c := range map[string]struct {
		ds   *data.Dataset
		opts Options
	}{
		"dense":      {testDataset(150, 8), Options{BlockSize: 2 << 10}},
		"sparse":     {sparse, Options{BlockSize: 2 << 10}},
		"compressed": {testDataset(150, 8), Options{BlockSize: 2 << 10, Compress: true}},
	} {
		t.Run(name, func(t *testing.T) {
			tab, _ := buildTable(t, c.ds, c.opts)
			all, err := tab.DecodeAll()
			if err != nil {
				t.Fatal(err)
			}
			nb := tab.NumBlocks()
			if nb < 4 || len(all) != c.ds.Len() {
				t.Fatalf("%d blocks, %d tuples decoded of %d", nb, len(all), c.ds.Len())
			}
			starts := make([]int, nb+1) // starts[b] = index in all of block b's first tuple
			for b := 0; b < nb; b++ {
				starts[b+1] = starts[b] + tab.BlockTuples(b)
			}
			for from := 0; from <= nb; from++ {
				for to := from; to <= nb; to++ {
					got, err := tab.DecodeBlocks(from, to)
					if err != nil {
						t.Fatalf("DecodeBlocks(%d, %d): %v", from, to, err)
					}
					if want := all[starts[from]:starts[to]]; !reflect.DeepEqual(got, want) {
						t.Fatalf("DecodeBlocks(%d, %d) = %d tuples, differs from DecodeAll[%d:%d]",
							from, to, len(got), starts[from], starts[to])
					}
				}
			}
			for _, r := range [][2]int{{-1, 1}, {2, 1}, {0, nb + 1}, {nb + 1, nb + 1}} {
				if _, err := tab.DecodeBlocks(r[0], r[1]); err == nil {
					t.Errorf("DecodeBlocks(%d, %d) on %d blocks: no error", r[0], r[1], nb)
				}
			}
		})
	}
}
