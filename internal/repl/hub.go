package repl

import (
	"sync"
	"sync/atomic"

	"corgipile/internal/storage"
)

// hub fans appended WAL records out to subscribers without ever blocking
// the append path. It keeps a bounded ring of recent framed records so a
// subscriber that reconnects (or is created for a replica slightly behind
// the frontier) can catch up from memory; anything older than the ring
// needs a full snapshot. A subscriber is shed — its gone channel closes,
// its sender re-runs catch-up — when its buffered channel fills or when the
// ring has dropped a record its replica has not acked yet: more than
// maxBytes are then un-acked, and the replica needs a snapshot whatever the
// socket still holds. That bounds lag by the ring budget rather than by the
// kernel's send buffer, and one slow replica can never apply backpressure
// to ingest.
type hub struct {
	mu       sync.Mutex
	maxBytes int64
	ring     []ringEntry
	ringSize int64
	lastLSN  uint64 // highest LSN published (or the log's LSN at startup)
	dropped  uint64 // highest LSN that has left the ring (0 = none yet)
	subs     map[*subscriber]struct{}
}

type ringEntry struct {
	lsn   uint64
	frame []byte
}

type subscriber struct {
	ch   chan []byte
	gone chan struct{} // closed once, when the subscriber is shed
	// The replica holds everything up to max(from, acked): from is the LSN
	// the subscription started after (a snapshot's frontier until the
	// replica has installed it), acked the connection's last acked LSN.
	from  uint64
	acked *atomic.Uint64
}

// lagging reports whether the ring has dropped a record the subscriber's
// replica has not acked.
func (s *subscriber) lagging(dropped uint64) bool {
	return s.from < dropped && s.acked.Load() < dropped
}

func newHub(lastLSN uint64, maxBytes int64) *hub {
	return &hub{
		maxBytes: maxBytes,
		lastLSN:  lastLSN,
		subs:     make(map[*subscriber]struct{}),
	}
}

// publish frames rec, appends it to the ring, and offers it to every
// subscriber. Called from the WAL notify hook — under the WAL mutex, in
// LSN order — so it must stay non-blocking.
func (h *hub) publish(rec storage.WALRecord) (frameLen int) {
	frame := storage.AppendWALRecord(nil, rec)
	h.mu.Lock()
	h.ring = append(h.ring, ringEntry{lsn: rec.LSN, frame: frame})
	h.ringSize += int64(len(frame))
	for h.ringSize > h.maxBytes && len(h.ring) > 1 {
		h.ringSize -= int64(len(h.ring[0].frame))
		h.dropped = h.ring[0].lsn
		h.ring = h.ring[1:]
	}
	h.lastLSN = rec.LSN
	for sub := range h.subs {
		if !sub.lagging(h.dropped) {
			select {
			case sub.ch <- frame:
				continue
			default:
			}
		}
		// Too far behind or full buffer: shed now, resync later. Dropping
		// the subscriber here (not just marking it) keeps publish O(live
		// subscribers).
		close(sub.gone)
		delete(h.subs, sub)
	}
	h.mu.Unlock()
	return len(frame)
}

// last returns the highest published LSN.
func (h *hub) last() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastLSN
}

// subscribe registers a subscriber needing records with LSN > after,
// pre-filling its channel from the ring; acked is the connection's last
// acked LSN, read on every publish. It fails (nil, false) when the
// ring no longer covers after+1 — the caller must serve a snapshot and
// subscribe from its frontier instead. The caller must prevent concurrent
// appends (hold the catalog lock) so no record can fall between the ring
// check and the registration.
func (h *hub) subscribe(after uint64, buffer int, acked *atomic.Uint64) (*subscriber, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if after < h.lastLSN {
		if len(h.ring) == 0 || h.ring[0].lsn > after+1 {
			return nil, false
		}
	}
	var prefill [][]byte
	for _, e := range h.ring {
		if e.lsn > after {
			prefill = append(prefill, e.frame)
		}
	}
	sub := &subscriber{
		ch:    make(chan []byte, len(prefill)+buffer),
		gone:  make(chan struct{}),
		from:  after,
		acked: acked,
	}
	for _, f := range prefill {
		sub.ch <- f
	}
	h.subs[sub] = struct{}{}
	return sub, true
}

// unsubscribe removes sub; safe to call after a shed.
func (h *hub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	delete(h.subs, sub)
	h.mu.Unlock()
}

// pendingBytes estimates the ring bytes above the given LSN — the lag in
// bytes for a replica whose applied LSN is `after`. Records that already
// left the ring are not counted (the gauge is a floor, not an exact sum).
func (h *hub) pendingBytes(after uint64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n int64
	for _, e := range h.ring {
		if e.lsn > after {
			n += int64(len(e.frame))
		}
	}
	return n
}
