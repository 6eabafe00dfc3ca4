package iosim

import (
	"math"
	"testing"
	"time"

	"corgipile/internal/obs"
)

func TestSequentialReadNoSeekAfterFirst(t *testing.T) {
	clock := NewClock()
	reg := obs.New()
	dev := NewDevice(HDD, clock).WithObs(reg)
	dev.ReadAt(0, 1<<20)
	dev.ReadAt(1<<20, 1<<20) // contiguous
	dev.ReadAt(2<<20, 1<<20) // contiguous
	if got := reg.Counter(obs.IOSeeks); got != 1 {
		t.Fatalf("seeks = %d, want 1 (only the initial positioning)", got)
	}
}

func TestRandomReadsSeekEveryTime(t *testing.T) {
	clock := NewClock()
	reg := obs.New()
	dev := NewDevice(HDD, clock).WithObs(reg)
	offsets := []int64{0, 100 << 20, 10 << 20, 50 << 20}
	for _, off := range offsets {
		dev.ReadAt(off, 1<<20)
	}
	if got := reg.Counter(obs.IOSeeks); got != int64(len(offsets)) {
		t.Fatalf("seeks = %d, want %d", got, len(offsets))
	}
}

func TestReadCostMatchesModel(t *testing.T) {
	clock := NewClock()
	dev := NewDevice(HDD, clock)
	n := int64(140e6) // exactly one second of transfer at 140 MB/s
	cost := dev.ReadAt(0, n)
	want := HDD.SeekLatency + time.Second
	if diff := cost - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("cost = %v, want ~%v", cost, want)
	}
	if clock.Now() != cost {
		t.Fatalf("clock advanced %v, want %v", clock.Now(), cost)
	}
}

func TestHDDRandomTupleAccessMuchSlowerThanSequential(t *testing.T) {
	// Reading 10k tuples of 1 KiB each randomly vs sequentially: the random
	// plan must be orders of magnitude slower on HDD.
	seqClock, rndClock := NewClock(), NewClock()
	seq := NewDevice(HDD, seqClock)
	rnd := NewDevice(HDD, rndClock)
	const tuples, size = 10000, 1024
	for i := int64(0); i < tuples; i++ {
		seq.ReadAt(i*size, size)
		// Random: stride the accesses so none are contiguous.
		rnd.ReadAt(((i*7919)%tuples)*size*2, size)
	}
	ratio := rndClock.Now().Seconds() / seqClock.Now().Seconds()
	if ratio < 100 {
		t.Fatalf("random/sequential time ratio = %.1f, want >= 100 on HDD", ratio)
	}
}

func TestLargeBlockRandomAccessApproachesSequential(t *testing.T) {
	// Appendix A, Figure 20: with 10 MB blocks, random block access reaches
	// nearly sequential throughput.
	for _, p := range []Profile{HDD, SSD} {
		seqTP := SequentialReadThroughput(p, 1<<30)
		rndTP := RandomBlockReadThroughput(p, 1<<30, 10<<20)
		if rndTP < 0.85*seqTP {
			t.Errorf("%s: random 10MB-block throughput %.0f < 85%% of sequential %.0f", p.Name, rndTP, seqTP)
		}
		tinyTP := RandomBlockReadThroughput(p, 1<<30, 4<<10)
		if tinyTP > 0.5*seqTP {
			t.Errorf("%s: random 4KB-block throughput %.0f unexpectedly close to sequential %.0f", p.Name, tinyTP, seqTP)
		}
	}
}

func TestThroughputMonotoneInBlockSize(t *testing.T) {
	prev := 0.0
	for bs := int64(64 << 10); bs <= 64<<20; bs *= 2 {
		tp := RandomBlockReadThroughput(HDD, 1<<30, bs)
		if tp < prev {
			t.Fatalf("throughput decreased at block size %d: %.0f < %.0f", bs, tp, prev)
		}
		prev = tp
	}
}

func TestSSDFasterThanHDD(t *testing.T) {
	if SequentialReadThroughput(SSD, 1<<30) <= SequentialReadThroughput(HDD, 1<<30) {
		t.Fatal("SSD sequential throughput should exceed HDD")
	}
	if RandomBlockReadThroughput(SSD, 1<<30, 1<<20) <= RandomBlockReadThroughput(HDD, 1<<30, 1<<20) {
		t.Fatal("SSD random throughput should exceed HDD")
	}
}

func TestCacheMakesSecondPassFast(t *testing.T) {
	clock := NewClock()
	dev := NewDevice(HDD, clock).WithCache(1 << 30)
	const n = 100 << 20
	first := dev.ReadAt(0, n)
	second := dev.ReadAt(0, n)
	if second >= first/10 {
		t.Fatalf("cached read cost %v not much cheaper than cold read %v", second, first)
	}
	if dev.Stats().CacheHitBytes == 0 {
		t.Fatal("expected cache hits on second pass")
	}
}

func TestCacheEviction(t *testing.T) {
	clock := NewClock()
	dev := NewDevice(HDD, clock).WithCache(8 << 20) // 8 MiB cache
	// Read 64 MiB: working set exceeds cache, so re-reading the start misses.
	dev.ReadAt(0, 64<<20)
	hitsBefore := dev.Stats().CacheHitBytes
	dev.ReadAt(0, 1<<20)
	if dev.Stats().CacheHitBytes != hitsBefore {
		t.Fatal("expected a miss re-reading evicted range")
	}
}

func TestWriteCostsAndPopulatesCache(t *testing.T) {
	clock := NewClock()
	dev := NewDevice(SSD, clock).WithCache(1 << 30)
	wcost := dev.WriteAt(0, 80e6) // 0.1s at 800MB/s
	want := SSD.SeekLatency + 100*time.Millisecond
	if diff := wcost - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("write cost = %v, want ~%v", wcost, want)
	}
	rcost := dev.ReadAt(0, 80e6)
	if rcost >= wcost/5 {
		t.Fatalf("read after write should hit cache: got %v", rcost)
	}
}

func TestStatsAndReset(t *testing.T) {
	clock := NewClock()
	dev := NewDevice(HDD, clock)
	dev.ReadAt(0, 1000)
	dev.WriteAt(5000, 2000)
	s := dev.Stats()
	if s.Reads != 1 || s.BytesRead != 1000 || s.BytesWrit != 2000 {
		t.Fatalf("unexpected stats: %+v", s)
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"hdd", "ssd", "ram"} {
		p, ok := ProfileByName(name)
		if !ok || p.Name == "" {
			t.Fatalf("ProfileByName(%q) failed", name)
		}
	}
	if _, ok := ProfileByName("floppy"); ok {
		t.Fatal("unknown profile should not resolve")
	}
}

func TestZeroLengthOps(t *testing.T) {
	clock := NewClock()
	dev := NewDevice(HDD, clock)
	if dev.ReadAt(0, 0) != 0 || dev.WriteAt(0, 0) != 0 || dev.ReadAt(0, -5) != 0 {
		t.Fatal("zero/negative length operations must cost nothing")
	}
	if clock.Now() != 0 {
		t.Fatal("clock must not advance for empty operations")
	}
}

func TestRAMProfileNearZeroSeek(t *testing.T) {
	clock := NewClock()
	dev := NewDevice(RAM, clock)
	dev.ReadAt(0, 1<<20)
	dev.ReadAt(500<<20, 1<<20)
	if clock.Now() > time.Millisecond {
		t.Fatalf("RAM access too slow: %v", clock.Now())
	}
}

func TestThroughputEdgeCases(t *testing.T) {
	if RandomBlockReadThroughput(HDD, 0, 1<<20) != 0 {
		t.Fatal("zero total should give zero throughput")
	}
	if RandomBlockReadThroughput(HDD, 1<<20, 0) != 0 {
		t.Fatal("zero block size should give zero throughput")
	}
	if math.IsNaN(SequentialReadThroughput(HDD, 1)) {
		t.Fatal("throughput must not be NaN")
	}
}

func TestTraceRecordsPattern(t *testing.T) {
	clock := NewClock()
	dev := NewDevice(HDD, clock)
	trace := dev.WithTrace()
	dev.ReadAt(0, 1<<20)
	dev.ReadAt(1<<20, 1<<20)  // sequential
	dev.ReadAt(50<<20, 1<<20) // seek
	dev.WriteAt(90<<20, 1<<20)
	acc := trace.Accesses()
	if len(acc) != 4 {
		t.Fatalf("recorded %d accesses, want 4", len(acc))
	}
	if acc[1].Seek {
		t.Fatal("sequential read marked as seek")
	}
	if !acc[2].Seek {
		t.Fatal("random read not marked as seek")
	}
	if !acc[3].Write {
		t.Fatal("write not recorded as write")
	}
}

func TestTraceSeekFraction(t *testing.T) {
	clock := NewClock()
	dev := NewDevice(HDD, clock)
	trace := dev.WithTrace()
	// Sequential scan: only the first read seeks.
	for i := int64(0); i < 10; i++ {
		dev.ReadAt(i*(1<<20), 1<<20)
	}
	if f := trace.SeekFraction(); f > 0.15 {
		t.Fatalf("sequential seek fraction = %.2f, want ~0.1", f)
	}
	trace.Reset()
	// Random blocks: every read seeks.
	for i := int64(0); i < 10; i++ {
		dev.ReadAt(((i*7+3)%17)*(5<<20), 1<<20)
	}
	if f := trace.SeekFraction(); f < 0.9 {
		t.Fatalf("random seek fraction = %.2f, want ~1", f)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.record(Access{}) // must not panic
}
