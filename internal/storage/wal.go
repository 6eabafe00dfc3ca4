package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"corgipile/internal/obs"
)

// Write-ahead log record frame (little endian), CRC-framed like the block
// codec so a torn or bit-flipped tail is detected on replay:
//
//	lsn     uint64  (strictly increasing; duplicates are skipped on replay)
//	type    uint8
//	payLen  uint32
//	crc     uint32  (CRC32-IEEE over lsn, type, payLen, payload)
//	payload payLen bytes
const walHeaderSize = 8 + 1 + 4 + 4

// maxWALPayload bounds a single record's payload (64 MiB — far above the
// largest block plus framing) so a corrupted length field can never drive
// an unbounded allocation during replay.
const maxWALPayload = 64 << 20

// WALRecordType identifies what a WAL record logs.
type WALRecordType uint8

const (
	// WALCreateTable logs a catalog CREATE (JSON payload: schema + options).
	WALCreateTable WALRecordType = 1
	// WALAppendBlock logs one block appended to a table (binary payload,
	// see EncodeBlockPayload).
	WALAppendBlock WALRecordType = 2
	// WALDropTable logs a catalog DROP TABLE (JSON payload: name).
	WALDropTable WALRecordType = 3
	// WALCheckpoint terminates a checkpoint file; its JSON payload carries
	// the live-WAL LSN frontier the checkpoint covers.
	WALCheckpoint WALRecordType = 4
	// WALPutModel logs a model install or overwrite (JSON payload:
	// weights + provenance).
	WALPutModel WALRecordType = 5
	// WALDropModel logs a catalog DROP MODEL (JSON payload: name).
	WALDropModel WALRecordType = 6
)

// WALRecord is one decoded log record.
type WALRecord struct {
	LSN     uint64
	Type    WALRecordType
	Payload []byte
}

// AppendWALRecord appends the framed encoding of r to buf and returns the
// extended slice.
func AppendWALRecord(buf []byte, r WALRecord) []byte {
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], r.LSN)
	hdr[8] = byte(r.Type)
	binary.LittleEndian.PutUint32(hdr[9:], uint32(len(r.Payload)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[:13])
	crc.Write(r.Payload)
	binary.LittleEndian.PutUint32(hdr[13:], crc.Sum32())
	buf = append(buf, hdr[:]...)
	return append(buf, r.Payload...)
}

// DecodeWALRecords decodes records from the front of buf until the data
// ends or turns invalid, returning the good records and the byte length of
// the valid prefix. Everything past validLen is a torn or corrupt tail that
// recovery must truncate. Records whose LSN does not strictly exceed the
// previous record's are skipped (a duplicate append from a crashed retry
// must not be applied twice) but still extend the valid prefix.
//
// The function is pure — no file I/O — so fuzzing can drive it directly
// with hostile inputs.
func DecodeWALRecords(buf []byte) (recs []WALRecord, validLen int) {
	var lastLSN uint64
	off := 0
	for {
		rest := buf[off:]
		if len(rest) < walHeaderSize {
			return recs, off
		}
		lsn := binary.LittleEndian.Uint64(rest[0:])
		typ := WALRecordType(rest[8])
		payLen := int64(binary.LittleEndian.Uint32(rest[9:]))
		sum := binary.LittleEndian.Uint32(rest[13:])
		if payLen > maxWALPayload || payLen > int64(len(rest)-walHeaderSize) {
			return recs, off
		}
		payload := rest[walHeaderSize : walHeaderSize+payLen]
		crc := crc32.NewIEEE()
		crc.Write(rest[:13])
		crc.Write(payload)
		if crc.Sum32() != sum {
			return recs, off
		}
		off += walHeaderSize + int(payLen)
		if lsn <= lastLSN && len(recs) > 0 {
			continue // duplicate or regressed LSN: valid frame, skip replay
		}
		lastLSN = lsn
		recs = append(recs, WALRecord{LSN: lsn, Type: typ, Payload: append([]byte(nil), payload...)})
	}
}

// WriteSyncer is the WAL's write-path seam: the log appends through it and
// makes records durable through its Sync. Production use is the log's own
// *os.File; tests wrap it with WriteFaults to inject short writes, ENOSPC,
// and fsync failures without touching the filesystem.
type WriteSyncer interface {
	io.Writer
	Sync() error
}

// ErrStaleLSN reports an AppendRecord whose LSN does not advance the log —
// a replica seeing a resent record it already applied returns this and
// skips the record rather than double-applying it.
var ErrStaleLSN = errors.New("storage: stale wal lsn")

// WAL is an append-only write-ahead log backed by a real file. Appends go
// to the OS page cache (surviving a SIGKILL of this process); Sync flushes
// to stable media and is called once per mutation statement, not per
// record. A torn tail from a crash mid-write is detected by the CRC frame
// and truncated on the next open.
//
// A failed append rolls the file back to the previous record boundary, so
// one failed statement never leaves a torn prefix in front of later
// records. A failed Sync (or a failed rollback) poisons the log: the
// post-fsync-error state of the page cache is unknowable, so every later
// append and sync fails with the original error until the process restarts
// and recovery re-validates the file.
type WAL struct {
	mu     sync.Mutex
	f      *os.File
	ws     WriteSyncer // == f unless a test wrapped it
	next   uint64      // next LSN to assign
	size   int64       // bytes of valid records in the file
	failed error       // poison: set on sync failure or failed rollback
	notify func(WALRecord)
	reg    *obs.Registry
	events *obs.EventLog
}

// OpenWAL opens (creating if absent) the log at path, replays it, truncates
// any torn tail, and returns the recovered records. The returned WAL
// continues appending after the last valid record with a strictly larger
// LSN.
func OpenWAL(path string) (*WAL, []WALRecord, error) {
	return OpenWALFile(path, nil)
}

// OpenWALFile is OpenWAL with a write-path wrapper: when wrap is non-nil
// the log appends and syncs through wrap(file) instead of the file itself.
// Recovery (replay, torn-tail truncation) always reads the real file.
func OpenWALFile(path string, wrap func(WriteSyncer) WriteSyncer) (*WAL, []WALRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: open wal: %w", err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("storage: read wal: %w", err)
	}
	recs, valid := DecodeWALRecords(buf)
	if valid < len(buf) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("storage: truncate torn wal tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("storage: seek wal: %w", err)
	}
	w := &WAL{f: f, next: 1, size: int64(valid)}
	w.ws = f
	if wrap != nil {
		w.ws = wrap(f)
	}
	if n := len(recs); n > 0 {
		w.next = recs[n-1].LSN + 1
	}
	w.truncated(len(buf) - valid)
	return w, recs, nil
}

// WithObs attaches a metrics registry; wal.* counters record appends,
// bytes, and syncs. Returns w for chaining.
func (w *WAL) WithObs(reg *obs.Registry) *WAL {
	w.mu.Lock()
	w.reg = reg
	w.mu.Unlock()
	return w
}

func (w *WAL) truncated(n int) {
	if n > 0 {
		w.mu.Lock()
		reg := w.reg
		w.mu.Unlock()
		reg.Add(obs.WALReplayTruncated, int64(n))
	}
}

// WithEvents attaches a structured event log: poisoning failures (a
// failed fsync, a failed append rollback) emit a wal.sync_failure event
// so the introspection plane can explain why the log went read-dead.
// Returns w for chaining.
func (w *WAL) WithEvents(el *obs.EventLog) *WAL {
	w.mu.Lock()
	w.events = el
	w.mu.Unlock()
	return w
}

// Poisoned returns the error that poisoned the log (a failed sync or
// rollback), or nil while the log is healthy — the readiness probe's
// WAL-writability check.
func (w *WAL) Poisoned() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// WithNotify registers a hook invoked under the log's lock, in LSN order,
// after each successful append — the replication publish point. The hook
// must not block (it feeds bounded per-subscriber buffers) and must not
// call back into the WAL. Returns w for chaining.
func (w *WAL) WithNotify(fn func(WALRecord)) *WAL {
	w.mu.Lock()
	w.notify = fn
	w.mu.Unlock()
	return w
}

// Size returns the bytes of valid records currently in the log file — the
// auto-checkpoint trigger reads this to decide when to compact.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// NextLSN returns the LSN the next append will receive.
func (w *WAL) NextLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next
}

// AdvanceLSN raises the next LSN to at least lsn — recovery calls this with
// the checkpoint frontier so post-recovery appends stay above everything
// the checkpoint already covers.
func (w *WAL) AdvanceLSN(lsn uint64) {
	w.mu.Lock()
	if lsn > w.next {
		w.next = lsn
	}
	w.mu.Unlock()
}

// Append writes one record (without syncing) and returns its LSN.
func (w *WAL) Append(typ WALRecordType, payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	rec := WALRecord{LSN: w.next, Type: typ, Payload: payload}
	if err := w.writeLocked(rec); err != nil {
		return 0, err
	}
	w.next++
	return rec.LSN, nil
}

// AppendRecord writes a record verbatim, preserving its LSN — the replica
// apply path, which must keep the primary's LSNs so its directory recovers
// exactly like the primary's would. The LSN must advance the log; a record
// at or below the last written LSN returns ErrStaleLSN and writes nothing.
func (w *WAL) AppendRecord(rec WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if rec.LSN < w.next {
		return fmt.Errorf("%w: record lsn %d, log already at %d", ErrStaleLSN, rec.LSN, w.next-1)
	}
	if err := w.writeLocked(rec); err != nil {
		return err
	}
	w.next = rec.LSN + 1
	return nil
}

// writeLocked frames and appends one record, rolling the file back to the
// last record boundary on failure. Callers hold w.mu.
func (w *WAL) writeLocked(rec WALRecord) error {
	if w.failed != nil {
		return fmt.Errorf("storage: wal unavailable after earlier failure: %w", w.failed)
	}
	buf := AppendWALRecord(nil, rec)
	n, err := w.ws.Write(buf)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		// Undo the partial frame so later appends don't land behind a torn
		// prefix (replay stops at the first bad frame, losing everything
		// after it). If the rollback itself fails the log is poisoned.
		if terr := w.f.Truncate(w.size); terr != nil {
			w.failed = fmt.Errorf("append: %v; rollback: %v", err, terr)
		} else if _, serr := w.f.Seek(w.size, 0); serr != nil {
			w.failed = fmt.Errorf("append: %v; rollback seek: %v", err, serr)
		}
		if w.failed != nil {
			w.events.Emit(obs.EvWALSyncFailure, "", w.failed.Error())
		}
		return fmt.Errorf("storage: wal append: %w", err)
	}
	w.size += int64(len(buf))
	w.reg.Inc(obs.WALAppends)
	w.reg.Add(obs.WALAppendBytes, int64(len(buf)))
	if w.notify != nil {
		w.notify(rec)
	}
	return nil
}

// Sync flushes appended records to stable media. A sync failure poisons
// the log — after a failed fsync the page-cache state is unknowable, so
// retrying could silently drop the unflushed range.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return fmt.Errorf("storage: wal unavailable after earlier failure: %w", w.failed)
	}
	if err := w.ws.Sync(); err != nil {
		w.failed = err
		w.events.Emit(obs.EvWALSyncFailure, "", err.Error())
		return fmt.Errorf("storage: wal sync: %w", err)
	}
	w.reg.Inc(obs.WALSyncs)
	return nil
}

// Reset truncates the log to empty after a successful checkpoint. The LSN
// sequence keeps counting — it never restarts — so records written after a
// reset still sort above the checkpoint frontier.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: wal reset: %w", err)
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return fmt.Errorf("storage: wal reset seek: %w", err)
	}
	w.size = 0
	return w.f.Sync()
}

// Close syncs and closes the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// ReadWALRecord decodes one framed record from a stream — the replication
// transport, where frames arrive over a socket instead of from a file. A
// clean EOF at a frame boundary returns io.EOF; a truncated frame returns
// io.ErrUnexpectedEOF; a CRC or length violation returns ErrCorrupt.
func ReadWALRecord(r io.Reader) (WALRecord, error) {
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return WALRecord{}, err
	}
	lsn := binary.LittleEndian.Uint64(hdr[0:])
	typ := WALRecordType(hdr[8])
	payLen := int64(binary.LittleEndian.Uint32(hdr[9:]))
	sum := binary.LittleEndian.Uint32(hdr[13:])
	if payLen > maxWALPayload {
		return WALRecord{}, fmt.Errorf("%w: wal frame payload %d exceeds limit", ErrCorrupt, payLen)
	}
	payload := make([]byte, payLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return WALRecord{}, err
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[:13])
	crc.Write(payload)
	if crc.Sum32() != sum {
		return WALRecord{}, fmt.Errorf("%w: wal frame crc mismatch at lsn %d", ErrCorrupt, lsn)
	}
	return WALRecord{LSN: lsn, Type: typ, Payload: payload}, nil
}

// WALPrefixLen returns the byte length of the valid prefix of buf whose
// records all have LSN <= upto. Truncating a log file copy to this length
// is exactly the state a crash could have left behind once everything
// through upto was written — the failover test uses it to reconstruct the
// primary state a replica's applied LSN corresponds to.
func WALPrefixLen(buf []byte, upto uint64) int {
	off := 0
	for {
		rest := buf[off:]
		if len(rest) < walHeaderSize {
			return off
		}
		lsn := binary.LittleEndian.Uint64(rest[0:])
		payLen := int64(binary.LittleEndian.Uint32(rest[9:]))
		if payLen > maxWALPayload || payLen > int64(len(rest)-walHeaderSize) {
			return off
		}
		if lsn > upto {
			return off
		}
		off += walHeaderSize + int(payLen)
	}
}

// Block-append payload (little endian):
//
//	nameLen uint16
//	name    nameLen bytes
//	firstID uint64
//	tuples  uint32
//	raw     remaining bytes (concatenated tuple encodings)

// EncodeBlockPayload encodes a block append on table into a WAL payload.
func EncodeBlockPayload(table string, rb RawBlock) []byte {
	buf := make([]byte, 0, 2+len(table)+12+len(rb.Raw))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(table)))
	buf = append(buf, table...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rb.FirstID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rb.Tuples))
	return append(buf, rb.Raw...)
}

// DecodeBlockPayload decodes a WALAppendBlock payload. The raw tuple bytes
// are returned unvalidated — AppendRawBlock validates them tuple by tuple
// before any table state changes.
func DecodeBlockPayload(p []byte) (table string, rb RawBlock, err error) {
	if len(p) < 2 {
		return "", RawBlock{}, fmt.Errorf("%w: short block payload", ErrCorrupt)
	}
	nameLen := int(binary.LittleEndian.Uint16(p))
	if len(p) < 2+nameLen+12 {
		return "", RawBlock{}, fmt.Errorf("%w: short block payload header", ErrCorrupt)
	}
	table = string(p[2 : 2+nameLen])
	p = p[2+nameLen:]
	rb.FirstID = int64(binary.LittleEndian.Uint64(p))
	rb.Tuples = int(binary.LittleEndian.Uint32(p[8:]))
	rb.Raw = append([]byte(nil), p[12:]...)
	return table, rb, nil
}
