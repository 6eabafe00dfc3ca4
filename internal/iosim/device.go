package iosim

import (
	"fmt"
	"sync"
	"time"

	"corgipile/internal/obs"
)

// Stats counts the traffic a device has served since creation.
type Stats struct {
	Reads         int64 // read operations
	BytesRead     int64
	BytesWrit     int64
	CacheHitBytes int64 // bytes served from the simulated OS cache (obs.IOCacheHitBytes)
	Faults        int64 // transient read errors injected by the fault plan
	Stragglers    int64 // reads that paid an injected latency spike
}

// Device is a simulated block-addressable storage device.
//
// A Device does not hold data; storage contents live in the in-memory heap
// files of internal/storage. The device's job is purely to account for the
// simulated time that reads and writes would take on real hardware,
// advancing the shared Clock. Accesses contiguous with the previous access
// proceed at full bandwidth; any other access first pays the profile's seek
// latency. An optional cache models the OS page cache.
//
// Device is safe for concurrent use.
type Device struct {
	mu     sync.Mutex
	prof   Profile
	clock  *Clock
	pos    int64 // head position: offset just past the last access
	cache  *pageCache
	trace  *Trace
	stats  Stats
	reg    *obs.Registry
	faults *faultInjector
}

// NewDevice returns a device with the given profile, charging time to clock.
func NewDevice(prof Profile, clock *Clock) *Device {
	return &Device{prof: prof, clock: clock, pos: -1}
}

// WithCache attaches a simulated OS page cache of the given capacity (bytes)
// to the device and returns the device. Cached extents are re-read at RAM
// bandwidth. Unit granularity is 1 MiB.
func (d *Device) WithCache(capacityBytes int64) *Device {
	d.mu.Lock()
	d.cache = newPageCache(capacityBytes)
	d.mu.Unlock()
	return d
}

// WithObs attaches an observability registry to the device and returns the
// device: every subsequent access reports its operation count, bytes, seeks,
// cache hits, and simulated cost under the obs.IO* metric names. The
// registry generalizes the per-access Trace — Trace answers "what was the
// access pattern", the registry feeds the cross-layer epoch breakdown.
func (d *Device) WithObs(reg *obs.Registry) *Device {
	d.mu.Lock()
	d.reg = reg
	d.mu.Unlock()
	return d
}

// WithFaults attaches a deterministic fault-injection plan to the device and
// returns the device. Faults act only on TryReadAt — the checked read path
// real data accesses use; pure cost-accounting calls (ReadAt, WriteAt)
// never fail, so a zero plan leaves every existing timing
// bit-for-bit unchanged.
func (d *Device) WithFaults(p FaultPlan) *Device {
	d.mu.Lock()
	if p.Enabled() {
		d.faults = newFaultInjector(p)
	} else {
		d.faults = nil
	}
	d.mu.Unlock()
	return d
}

// BlockCorrupt reports whether the fault plan marks storage block i as
// permanently corrupt. The storage layer consults this on each block read
// and flips a payload bit so its CRC check trips.
func (d *Device) BlockCorrupt(i int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faults != nil && d.faults.corrupt[i]
}

// Clock returns the clock the device charges time to.
func (d *Device) Clock() *Clock { return d.clock }

// Stats returns a snapshot of the device's traffic counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ReadAt charges the cost of reading n bytes at offset off and returns that
// cost. The clock is advanced by the same amount.
func (d *Device) ReadAt(off, n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	d.mu.Lock()
	cost := d.readCostLocked(off, n)
	d.mu.Unlock()
	d.clock.Advance(cost)
	return cost
}

// TryReadAt is the checked variant of ReadAt used by real data reads: it
// consults the device's fault plan before transferring. A transient fault
// charges the plan's error latency and returns an error wrapping
// ErrTransient without moving the head or touching the cache (no data was
// transferred); a straggler read succeeds but pays an extra latency spike.
// With no fault plan attached, TryReadAt is exactly ReadAt.
func (d *Device) TryReadAt(off, n int64) (time.Duration, error) {
	if n <= 0 {
		return 0, nil
	}
	d.mu.Lock()
	if d.faults != nil && d.faults.readError() {
		cost := d.faults.errorCost(d.prof)
		d.stats.Faults++
		if d.reg != nil {
			d.reg.Inc(obs.IOFaultOps)
			d.reg.AddDuration(obs.IOTimeNanos, cost)
		}
		d.mu.Unlock()
		d.clock.Advance(cost)
		return cost, fmt.Errorf("iosim: read %d bytes at %d: %w", n, off, ErrTransient)
	}
	cost := d.readCostLocked(off, n)
	if d.faults != nil {
		if extra, ok := d.faults.straggle(); ok {
			cost += extra
			d.stats.Stragglers++
			if d.reg != nil {
				d.reg.Inc(obs.IOStragglerOps)
				d.reg.AddDuration(obs.IOTimeNanos, extra)
			}
		}
	}
	d.mu.Unlock()
	d.clock.Advance(cost)
	return cost, nil
}

// readCostLocked computes and accounts the cost of a read without touching
// the clock. Callers must hold d.mu.
func (d *Device) readCostLocked(off, n int64) time.Duration {
	d.stats.Reads++
	d.stats.BytesRead += n

	hit := d.cache.span(off, n)
	d.stats.CacheHitBytes += hit
	miss := n - hit

	var cost time.Duration
	seek := false
	// Cached bytes move at memory speed regardless of position.
	cost += RAM.readCost(hit)
	if miss > 0 {
		if off != d.pos {
			cost += d.prof.SeekLatency
			seek = true
		}
		cost += d.prof.readCost(miss)
	}
	d.pos = off + n
	d.trace.record(Access{Off: off, N: n, Seek: seek})
	if d.reg != nil {
		d.reg.Inc(obs.IOReadOps)
		d.reg.Add(obs.IOReadBytes, n)
		d.reg.Add(obs.IOCacheHitBytes, hit)
		if seek {
			d.reg.Inc(obs.IOSeeks)
		}
		d.reg.AddDuration(obs.IOTimeNanos, cost)
	}
	return cost
}

// WriteAt charges the cost of writing n bytes at offset off and returns that
// cost. Writes always touch the medium (write-through); they also populate
// the cache so that a subsequent read hits.
func (d *Device) WriteAt(off, n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	d.mu.Lock()
	d.stats.BytesWrit += n
	var cost time.Duration
	seek := off != d.pos
	if seek {
		cost += d.prof.SeekLatency
	}
	cost += d.prof.writeCost(n)
	d.cache.span(off, n)
	d.trace.record(Access{Write: true, Off: off, N: n, Seek: seek})
	d.pos = off + n
	if d.reg != nil {
		d.reg.Inc(obs.IOWriteOps)
		d.reg.Add(obs.IOWriteBytes, n)
		if seek {
			d.reg.Inc(obs.IOWriteSeeks)
		}
		d.reg.AddDuration(obs.IOTimeNanos, cost)
	}
	d.mu.Unlock()
	d.clock.Advance(cost)
	return cost
}

// SequentialReadThroughput reports the throughput, in bytes/second, of
// reading total bytes sequentially from a cold device with this profile.
func SequentialReadThroughput(p Profile, total int64) float64 {
	cost := p.SeekLatency + p.readCost(total)
	if cost <= 0 {
		return 0
	}
	return float64(total) / cost.Seconds()
}

// RandomBlockReadThroughput reports the throughput, in bytes/second, of
// reading total bytes from a cold device in randomly placed blocks of
// blockSize bytes each. This is the measurement behind Appendix A Figure 20:
// as blockSize grows, throughput approaches sequential bandwidth.
func RandomBlockReadThroughput(p Profile, total, blockSize int64) float64 {
	if blockSize <= 0 || total <= 0 {
		return 0
	}
	blocks := (total + blockSize - 1) / blockSize
	cost := time.Duration(blocks)*p.SeekLatency + p.readCost(total)
	if cost <= 0 {
		return 0
	}
	return float64(total) / cost.Seconds()
}
