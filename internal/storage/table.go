package storage

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"sync"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
)

// Options configures table layout.
type Options struct {
	// BlockSize is the target uncompressed bytes per block — the unit of
	// random access for the BlockShuffle operator. Default 10 MiB (the
	// paper's recommended setting).
	BlockSize int64
	// PageSize is the heap page size; blocks hold whole pages. Default
	// 8 KiB (PostgreSQL's page size).
	PageSize int64
	// Compress enables per-block flate compression, modelling PostgreSQL's
	// TOAST for wide tuples (the paper's epsilon and yfcc datasets).
	Compress bool
	// DecompressRate is the modelled decompression throughput in
	// bytes/second of raw output; it throttles compressed reads the way
	// TOAST throttled the paper's yfcc loading to ~130 MB/s. Default 150e6.
	DecompressRate float64
	// ChargeBuild charges the cost of writing the table to the device's
	// clock. Off by default: experiments start from an existing table.
	ChargeBuild bool
}

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 10 << 20
	}
	if o.PageSize <= 0 {
		o.PageSize = 8 << 10
	}
	if o.DecompressRate <= 0 {
		o.DecompressRate = 150e6
	}
	return o
}

// BlockMeta records one block in the table's block index, the structure the
// BlockShuffle operator consults to address random blocks.
type BlockMeta struct {
	// Offset and Len locate the block in the table's logical file, the
	// address space the device charges (Len is the on-disk, possibly
	// compressed, length including header and page padding).
	Offset int64
	Len    int64
	// RawLen is the uncompressed payload length.
	RawLen int64
	// Tuples is the number of tuples stored in the block.
	Tuples int
	// FirstID is the ID of the block's first tuple in storage order.
	FirstID int64
	// Start is the number of tuples stored in the blocks before this one.
	Start int
}

// RawBlock is the device-independent form of one block: the raw
// (uncompressed) tuple payload plus its tuple count and first tuple ID. It
// is what the write-ahead log records for an append — replaying a RawBlock
// through AppendRawBlock reproduces the block bit-for-bit, including
// recompression, on any device.
type RawBlock struct {
	// Raw is the concatenated tuple encodings (AppendTuple format).
	Raw []byte
	// Tuples is the number of tuples encoded in Raw.
	Tuples int
	// FirstID is the ID of the block's first tuple.
	FirstID int64
}

// Table is a heap table laid out in blocks on a simulated device.
//
// Tuple bytes live in memory, one slice per block holding its header,
// payload and padding; the device accounts for the simulated time real
// hardware would spend serving each access, at the blocks' logical offsets.
//
// Tables are mutable: AppendTuples/AppendRawBlock add whole blocks to the
// tail under an internal lock, and existing blocks are never rewritten, so
// concurrent readers (a training epoch in flight) observe a stable prefix
// while ingestion extends the table.
//
// Tuples handed out by ReadBlock, DecodeBlocks and DecodeAll are read-only
// views of the table's decoded image (image.go), shared between every reader
// of the table: copy a tuple to change it, build a new slice to reorder or
// filter. The views' capacity is clamped to their length, so an append
// reallocates.
type Table struct {
	Name string

	dev  *iosim.Device
	opts Options

	mu     sync.RWMutex
	meta   []BlockMeta
	blocks [][]byte // blocks[i] is block i's bytes, meta[i].Len of them

	img image

	task     data.Task
	features int
	classes  int
	tuples   int
}

// NewEmpty returns an empty table with the given schema on dev — the
// starting point for WAL replay and for ingestion-built tables.
func NewEmpty(dev *iosim.Device, name string, task data.Task, features, classes int, opts Options) *Table {
	return &Table{
		Name:     name,
		dev:      dev,
		opts:     opts.withDefaults(),
		task:     task,
		features: features,
		classes:  classes,
	}
}

// Build lays the dataset out as a table on the device. Tuples are packed
// into pages and pages into blocks of opts.BlockSize bytes; a tuple never
// spans blocks, so each block decodes independently.
func Build(dev *iosim.Device, ds *data.Dataset, opts Options) (*Table, error) {
	t := NewEmpty(dev, ds.Name, ds.Task, ds.Features, ds.Classes, opts)
	if _, err := t.appendTuples(ds.Tuples, false); err != nil {
		return nil, err
	}
	return t, nil
}

// AppendTuples packs ts into new blocks appended to the table tail,
// returning the raw form of every appended block so callers (the WAL) can
// log exactly what changed. It encodes the tuples and keeps none of them:
// the caller may reuse ts and its feature slices as soon as it returns.
// Appends never rewrite existing blocks: the last block of the table stays
// as it was, so a trailing short block is possible — every reader already
// tolerates variable block sizes.
func (t *Table) AppendTuples(ts []data.Tuple) ([]RawBlock, error) {
	return t.appendTuples(ts, true)
}

// appendTuples is AppendTuples with the raw forms optionally returned; Build
// drops them since nothing logs them, and reuses one payload buffer.
func (t *Table) appendTuples(ts []data.Tuple, keepRaw bool) ([]RawBlock, error) {
	var out []RawBlock
	var raw []byte
	for start := 0; start < len(ts); {
		// A block takes tuples until its payload reaches the block size, and
		// always at least one, however small the block size.
		end, size := start, 0
		for end < len(ts) && (end == start || int64(size) < t.opts.BlockSize-24) {
			size += EncodedTupleSize(&ts[end])
			end++
		}
		if keepRaw || cap(raw) < size {
			raw = make([]byte, 0, size)
		}
		raw = raw[:0]
		for i := start; i < end; i++ {
			raw = AppendTuple(raw, &ts[i])
		}
		rb := RawBlock{Raw: raw, Tuples: end - start, FirstID: ts[start].ID}
		if err := t.AppendRawBlock(rb); err != nil {
			return nil, err
		}
		if keepRaw {
			out = append(out, rb)
		}
		start = end
	}
	return out, nil
}

// AppendRawBlock appends one block from its raw form — the WAL replay path.
// The payload is validated tuple by tuple before any table state changes,
// so a corrupt record can never install an undecodable block.
func (t *Table) AppendRawBlock(rb RawBlock) error {
	if err := ValidateRawTuples(rb.Raw, rb.Tuples); err != nil {
		return fmt.Errorf("storage: append block: %w", err)
	}
	payload := rb.Raw
	rawLen := int64(len(rb.Raw))
	if t.opts.Compress {
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			return fmt.Errorf("storage: flate init: %w", err)
		}
		if _, err := fw.Write(rb.Raw); err != nil {
			return fmt.Errorf("storage: compress: %w", err)
		}
		if err := fw.Close(); err != nil {
			return fmt.Errorf("storage: compress close: %w", err)
		}
		payload = buf.Bytes()
	}
	// Pad uncompressed blocks to whole pages so BN matches
	// page_num*page_size/block_size as in the paper's operator.
	blockLen := 24 + int64(len(payload))
	if rem := blockLen % t.opts.PageSize; rem != 0 && !t.opts.Compress {
		blockLen += t.opts.PageSize - rem
	}
	// Block header: tuple count, raw length, payload length, CRC32 of
	// the payload (integrity check on every read).
	blk := make([]byte, blockLen)
	binary.LittleEndian.PutUint32(blk[0:], uint32(rb.Tuples))
	binary.LittleEndian.PutUint64(blk[4:], uint64(rawLen))
	binary.LittleEndian.PutUint64(blk[12:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(blk[20:], crc32.ChecksumIEEE(payload))
	copy(blk[24:], payload)

	t.mu.Lock()
	offset := t.sizeLocked()
	t.meta = append(t.meta, BlockMeta{
		Offset: offset, Len: blockLen, RawLen: rawLen, Tuples: rb.Tuples, FirstID: rb.FirstID, Start: t.tuples,
	})
	t.blocks = append(t.blocks, blk)
	t.tuples += rb.Tuples
	t.mu.Unlock()
	if t.opts.ChargeBuild {
		t.dev.WriteAt(offset, blockLen)
	}
	return nil
}

// Device returns the device the table lives on.
func (t *Table) Device() *iosim.Device { return t.dev }

// Options returns the table's layout options.
func (t *Table) Options() Options { return t.opts }

// Task returns the learning task of the stored dataset.
func (t *Table) Task() data.Task { return t.task }

// Features returns the feature dimensionality of the stored dataset.
func (t *Table) Features() int { return t.features }

// Classes returns the number of classes of the stored dataset.
func (t *Table) Classes() int { return t.classes }

// TruncateBlocks drops blocks from the tail until n remain — the rollback
// hook for an append whose WAL record could not be made durable. Durable
// state is the source of truth: if the log rejected the record, the
// in-memory blocks must go too, or a restart would silently lose tuples
// the session still served. The decoded image is cut with the table.
// Snapshots and views taken before the call stay valid (the retained
// prefixes are re-sliced with full capacity bounds so later appends
// reallocate instead of overwriting).
func (t *Table) TruncateBlocks(n int) {
	t.img.mu.Lock()
	defer t.img.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 0 || n >= len(t.meta) {
		return
	}
	cut := t.meta[n]
	t.tuples = cut.Start
	t.meta = t.meta[:n:n]
	t.blocks = t.blocks[:n:n]
	t.img.truncate(n, cut.Start)
}

// NumBlocks returns the number of blocks (the paper's N).
func (t *Table) NumBlocks() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.meta)
}

// NumTuples returns the number of tuples (the paper's m).
func (t *Table) NumTuples() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tuples
}

// SizeBytes returns the on-disk size of the table file.
func (t *Table) SizeBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sizeLocked()
}

// sizeLocked returns the table file's size, the end of its last block.
// Callers hold mu.
func (t *Table) sizeLocked() int64 {
	if len(t.meta) == 0 {
		return 0
	}
	last := t.meta[len(t.meta)-1]
	return last.Offset + last.Len
}

// BlockTuples returns the tuple count of block i.
func (t *Table) BlockTuples(i int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.meta[i].Tuples
}

// snapshot captures the block index and the blocks' bytes under the read
// lock. Blocks are immutable once appended and both slices only grow past
// what was captured, so the snapshot stays valid while concurrent appends
// extend the table.
func (t *Table) snapshot() ([]BlockMeta, [][]byte) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.meta, t.blocks
}

// snapshotBlock captures one block's metadata and bytes.
func (t *Table) snapshotBlock(i int) (BlockMeta, []byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i < 0 || i >= len(t.meta) {
		return BlockMeta{}, nil, fmt.Errorf("storage: block %d out of range [0,%d)", i, len(t.meta))
	}
	return t.meta[i], t.blocks[i], nil
}

// ReadBlock reads block i, charging the device (and therefore the simulated
// clock) for the access, and returns the image's tuples for it. Every call
// validates the block header and checksums the stored payload; compressed
// blocks additionally pay the modelled decompression time. A device fault
// plan may make the read fail transiently (an error wrapping
// iosim.ErrTransient) or return the block's payload with a flipped bit, which
// the CRC check converts into a permanent ErrCorrupt.
func (t *Table) ReadBlock(i int) ([]data.Tuple, error) {
	m, blk, err := t.snapshotBlock(i)
	if err != nil {
		return nil, err
	}
	if _, err := t.dev.TryReadAt(m.Offset, m.Len); err != nil {
		return nil, fmt.Errorf("storage: block %d: %w", i, err)
	}
	if t.dev.BlockCorrupt(i) {
		// Check a copy with one payload bit flipped: the checksum trips
		// exactly as it would for real media corruption.
		buf := append([]byte(nil), blk...)
		if len(buf) > 24 {
			buf[24] ^= 0x01
		}
		if _, _, _, err := t.verifyBlock(buf); err != nil {
			return nil, fmt.Errorf("storage: block %d: %w", i, err)
		}
	}
	_, rawLen, _, err := t.verifyBlock(blk)
	if err != nil {
		return nil, err
	}
	if t.opts.Compress {
		t.dev.Clock().Advance(time.Duration(float64(rawLen) / t.opts.DecompressRate * float64(time.Second)))
	}
	return t.view(i, i+1)
}

// RawBlockAt reconstructs block i's raw form without charging any simulated
// I/O — the checkpoint writer's read path.
func (t *Table) RawBlockAt(i int) (RawBlock, error) {
	m, blk, err := t.snapshotBlock(i)
	if err != nil {
		return RawBlock{}, err
	}
	var raw []byte
	if !t.opts.Compress {
		if int64(len(blk)) < 24+m.RawLen {
			return RawBlock{}, fmt.Errorf("%w: block %d shorter than its raw length", ErrCorrupt, i)
		}
		raw = append([]byte(nil), blk[24:24+m.RawLen]...)
	} else if _, raw, err = t.rawPayload(blk); err != nil {
		return RawBlock{}, err
	}
	return RawBlock{Raw: raw, Tuples: m.Tuples, FirstID: m.FirstID}, nil
}

// maxFlateRatio bounds flate's expansion: rawLen claims beyond this ratio
// of the stored payload are rejected as corrupt before any allocation.
const maxFlateRatio = 1032

// verifyBlock validates every header field of a stored block against the
// bytes actually present and checksums the payload, before any of it is
// trusted: a hostile or bit-flipped block yields ErrCorrupt, never a panic or
// an unbounded allocation. It returns the header's tuple count and raw
// length and the stored (possibly compressed) payload.
func (t *Table) verifyBlock(buf []byte) (count int, rawLen int64, payload []byte, err error) {
	if len(buf) < 24 {
		return 0, 0, nil, fmt.Errorf("%w: short block header", ErrCorrupt)
	}
	tuples := int64(binary.LittleEndian.Uint32(buf[0:]))
	rawLen = int64(binary.LittleEndian.Uint64(buf[4:]))
	payLen := int64(binary.LittleEndian.Uint64(buf[12:]))
	sum := binary.LittleEndian.Uint32(buf[20:])
	if payLen < 0 || payLen > int64(len(buf))-24 {
		return 0, 0, nil, fmt.Errorf("%w: payload length %d out of range for %d-byte block", ErrCorrupt, payLen, len(buf))
	}
	if rawLen < 0 || (!t.opts.Compress && rawLen != payLen) || rawLen > payLen*maxFlateRatio+64 {
		return 0, 0, nil, fmt.Errorf("%w: raw length %d inconsistent with %d-byte payload", ErrCorrupt, rawLen, payLen)
	}
	if tuples*tupleHeaderSize > rawLen {
		return 0, 0, nil, fmt.Errorf("%w: tuple count %d exceeds %d-byte raw payload", ErrCorrupt, tuples, rawLen)
	}
	payload = buf[24 : 24+payLen]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return 0, 0, nil, fmt.Errorf("%w: block checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, sum, got)
	}
	return int(tuples), rawLen, payload, nil
}

// rawPayload verifies a stored block and returns its tuple count and raw
// (uncompressed) tuple bytes: the stored payload itself, aliasing buf, or its
// inflation. It never touches the clock.
func (t *Table) rawPayload(buf []byte) (count int, raw []byte, err error) {
	count, rawLen, payload, err := t.verifyBlock(buf)
	if err != nil || !t.opts.Compress {
		return count, payload, err
	}
	fr := flate.NewReader(bytes.NewReader(payload))
	raw, err = io.ReadAll(io.LimitReader(fr, rawLen+1))
	if err != nil {
		return 0, nil, fmt.Errorf("storage: decompress: %w", err)
	}
	if err := fr.Close(); err != nil {
		return 0, nil, fmt.Errorf("storage: decompress close: %w", err)
	}
	if int64(len(raw)) != rawLen {
		return 0, nil, fmt.Errorf("%w: decompressed %d bytes, header claims %d", ErrCorrupt, len(raw), rawLen)
	}
	return count, raw, nil
}

// ScanAll reads every block in storage order, returning all tuples and
// charging sequential I/O. The block range is captured at entry: blocks
// appended while the scan runs are not included.
func (t *Table) ScanAll() ([]data.Tuple, error) {
	n := t.NumBlocks()
	out := make([]data.Tuple, 0, t.NumTuples())
	for i := 0; i < n; i++ {
		ts, err := t.ReadBlock(i)
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

// DecodeBlocks returns the image's tuples of blocks [from, to) without
// charging any simulated I/O, decoding the blocks no reader has asked for
// yet.
func (t *Table) DecodeBlocks(from, to int) ([]data.Tuple, error) {
	return t.view(from, to)
}

// DecodeAll returns every tuple without charging any simulated I/O. It is
// used for out-of-band model evaluation, which the paper's measurements
// also exclude from training time.
func (t *Table) DecodeAll() ([]data.Tuple, error) {
	return t.view(0, t.NumBlocks())
}

// ShuffleOnceCopy materializes a fully shuffled copy of the table — the
// Shuffle Once baseline. It charges the cost PostgreSQL's
// ORDER BY RANDOM() external sort pays: two sequential read passes and two
// sequential write passes over the data (run generation + merge), and it
// doubles the disk footprint, exactly the overheads Table 1 attributes to
// Shuffle Once.
func ShuffleOnceCopy(t *Table, rng *rand.Rand) (*Table, error) {
	tuples, err := t.ScanAll() // pass 1: read
	if err != nil {
		return nil, err
	}
	rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })

	size := t.SizeBytes()
	dev := t.dev
	// Run generation write, merge read, final write.
	dev.WriteAt(size, size)
	dev.ReadAt(size, size)
	dev.WriteAt(2*size, size)

	ds := &data.Dataset{
		Name:     t.Name + "-shuffled",
		Task:     t.task,
		Features: t.features,
		Classes:  t.classes,
		Tuples:   tuples,
	}
	opts := t.opts
	opts.ChargeBuild = false // write cost charged above
	return Build(dev, ds, opts)
}
