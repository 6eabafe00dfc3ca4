package iosim

import "testing"

func TestCacheHitOnRepeatExtent(t *testing.T) {
	c := newPageCache(4 << 20)
	if c.span(0, 1<<20) != 0 {
		t.Fatal("first read must miss")
	}
	if c.span(0, 1<<20) != 1<<20 {
		t.Fatal("second read of same extent must hit fully")
	}
}

func TestCacheNoFalseHitsForNeighbors(t *testing.T) {
	// Reading an adjacent, never-read extent must NOT hit, whatever the
	// internal granularity (regression test for unit-granularity false
	// hits).
	c := newPageCache(64 << 20)
	c.span(0, 64<<10)
	if c.span(64<<10, 64<<10) != 0 {
		t.Fatal("adjacent unread extent reported a hit")
	}
	if c.span(1<<10, 2<<10) != 0 {
		t.Fatal("unaligned overlap of a cached extent is not tracked and must miss")
	}
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := newPageCache(2 << 20) // two 1 MiB extents fit
	c.span(0, 1<<20)
	c.span(10<<20, 1<<20)
	c.span(0, 1<<20)      // offset 0 is now MRU
	c.span(20<<20, 1<<20) // evicts offset 10<<20
	if c.span(0, 1<<20) == 0 {
		t.Fatal("MRU extent should have survived")
	}
	if c.span(10<<20, 1<<20) != 0 {
		t.Fatal("LRU extent should have been evicted")
	}
}

func TestCacheGrowingExtent(t *testing.T) {
	c := newPageCache(8 << 20)
	c.span(0, 1<<20)
	// Re-reading a longer extent at the same offset hits the cached prefix.
	if hit := c.span(0, 2<<20); hit != 1<<20 {
		t.Fatalf("growing extent hit = %d, want %d", hit, 1<<20)
	}
	if hit := c.span(0, 2<<20); hit != 2<<20 {
		t.Fatal("grown extent should now hit fully")
	}
}

func TestCacheOversizeExtentNotAdmitted(t *testing.T) {
	c := newPageCache(1 << 20)
	c.span(0, 2<<20)
	if len(c.resident) != 0 {
		t.Fatal("extent larger than cache must not be admitted")
	}
	if c.span(0, 2<<20) != 0 {
		t.Fatal("oversize extent must always miss")
	}
}

func TestCacheCapacityEnforced(t *testing.T) {
	c := newPageCache(4 << 20)
	for i := int64(0); i < 16; i++ {
		c.span(i*(1<<20), 1<<20)
	}
	if c.total > 4<<20 {
		t.Fatalf("resident bytes %d exceed capacity", c.total)
	}
	if len(c.resident) > 4 {
		t.Fatalf("resident extents = %d, want <= 4", len(c.resident))
	}
}

func TestCacheZeroCapacityDisabled(t *testing.T) {
	c := newPageCache(0)
	if c.span(0, 1<<20) != 0 || c.span(0, 1<<20) != 0 {
		t.Fatal("zero-capacity cache must never hit")
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *pageCache
	if c.span(0, 100) != 0 {
		t.Fatal("nil cache span must be 0")
	}
}

func TestCacheSequentialFloodingNoHits(t *testing.T) {
	// Looping sequentially over a working set larger than the cache must
	// never hit (the classic LRU sequential-flooding behaviour that keeps
	// the paper's criteo runs disk-bound every epoch).
	c := newPageCache(4 << 20)
	var hits int64
	for pass := 0; pass < 3; pass++ {
		for i := int64(0); i < 16; i++ {
			hits += c.span(i*(1<<20), 1<<20)
		}
	}
	if hits != 0 {
		t.Fatalf("sequential flooding produced %d hit bytes, want 0", hits)
	}
}
