package iosim

// pageCache models the operating-system page cache.
//
// The paper clears the OS cache before each experiment but observes
// (Section 7.3.4) that datasets smaller than RAM are fully cached after the
// first epoch, making later epochs run at memory speed. Because the storage
// engine always reads whole blocks at stable offsets, residency is tracked
// per extent (offset-keyed), which is exact for this workload: a read hits
// only if that extent's bytes were actually read or written before.
// Eviction is LRU by bytes.
type pageCache struct {
	capacity int64 // maximum resident bytes
	resident map[int64]*cacheNode
	total    int64
	head     *cacheNode // most recently used
	tail     *cacheNode // least recently used
}

type cacheNode struct {
	off        int64
	n          int64
	prev, next *cacheNode
}

// newPageCache returns a cache with the given capacity in bytes. A
// capacity of zero disables caching.
func newPageCache(capacityBytes int64) *pageCache {
	return &pageCache{
		capacity: capacityBytes,
		resident: make(map[int64]*cacheNode),
	}
}

// span records a read of the extent [off, off+n) and reports how many of
// its bytes were already resident. The extent becomes resident
// (read-through), evicting least-recently-used extents as needed. Extents
// larger than the whole cache are not admitted (they would only evict
// everything for no future benefit).
func (c *pageCache) span(off, n int64) (hitBytes int64) {
	if c == nil || c.capacity == 0 || n <= 0 {
		return 0
	}
	if node, ok := c.resident[off]; ok && node.n >= n {
		c.moveToFront(node)
		return n
	} else if ok {
		// Same offset, shorter cached extent: count the overlap and grow.
		hitBytes = node.n
		c.total += n - node.n
		node.n = n
		c.moveToFront(node)
		c.evictOverflow()
		return hitBytes
	}
	if n > c.capacity {
		return 0
	}
	node := &cacheNode{off: off, n: n}
	c.resident[off] = node
	c.total += n
	c.pushFront(node)
	c.evictOverflow()
	return 0
}

func (c *pageCache) evictOverflow() {
	for c.total > c.capacity && c.tail != nil {
		c.evict()
	}
}

func (c *pageCache) pushFront(n *cacheNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *pageCache) moveToFront(n *cacheNode) {
	if c.head == n {
		return
	}
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if c.tail == n {
		c.tail = n.prev
	}
	c.pushFront(n)
}

func (c *pageCache) evict() {
	n := c.tail
	if n == nil {
		return
	}
	if n.prev != nil {
		n.prev.next = nil
	}
	c.tail = n.prev
	if c.head == n {
		c.head = nil
	}
	delete(c.resident, n.off)
	c.total -= n.n
}
