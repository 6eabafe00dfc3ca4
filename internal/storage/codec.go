// Package storage implements the on-disk table layout CorgiPile's physical
// operators address: a binary tuple codec, heap pages grouped into fixed
// target-size blocks, a block index, and block reads costed through the
// simulated device of internal/iosim. An optional per-block flate
// compression models PostgreSQL's TOAST behaviour for wide tuples.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"corgipile/internal/data"
)

// Tuple wire format (little endian):
//
//	id      uint64
//	label   float64 bits
//	flags   byte    (0 = dense, 1 = sparse)
//	count   uint32  (number of stored feature values)
//	dense:  count × float64
//	sparse: count × (int32 index, float64 value)
const (
	flagDense  = 0
	flagSparse = 1

	tupleHeaderSize = 8 + 8 + 1 + 4
)

// ErrCorrupt reports a malformed tuple or block.
var ErrCorrupt = errors.New("storage: corrupt data")

// AppendTuple appends the encoding of t to buf and returns the extended
// slice.
func AppendTuple(buf []byte, t *data.Tuple) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.ID))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Label))
	if t.IsSparse() {
		buf = append(buf, flagSparse)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.SparseIdx)))
		for i, idx := range t.SparseIdx {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(idx))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.SparseVal[i]))
		}
		return buf
	}
	buf = append(buf, flagDense)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Dense)))
	for _, v := range t.Dense {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// tupleShape validates the tuple at the front of buf — header present, known
// flags, payload within buf — and reports whether it is sparse, its stored
// feature count and its encoded size. It is the only place tuple bytes are
// checked; everything that reads a tuple afterwards trusts these bounds.
func tupleShape(buf []byte) (sparse bool, count, size int, err error) {
	if len(buf) < tupleHeaderSize {
		return false, 0, 0, fmt.Errorf("%w: short tuple header (%d bytes)", ErrCorrupt, len(buf))
	}
	flags := buf[16]
	count = int(binary.LittleEndian.Uint32(buf[17:]))
	// Overflow-safe: compare count against the space left, never n+count*8.
	room := len(buf) - tupleHeaderSize
	switch flags {
	case flagDense:
		if count > room/8 {
			return false, 0, 0, fmt.Errorf("%w: short dense payload", ErrCorrupt)
		}
		return false, count, tupleHeaderSize + count*8, nil
	case flagSparse:
		if count > room/12 {
			return false, 0, 0, fmt.Errorf("%w: short sparse payload", ErrCorrupt)
		}
		return true, count, tupleHeaderSize + count*12, nil
	default:
		return false, 0, 0, fmt.Errorf("%w: unknown tuple flags %d", ErrCorrupt, flags)
	}
}

// fillTuple decodes the tuple at the front of buf, whose shape tupleShape
// has validated, over *t, and reports its stored feature count, its encoded
// size and how many slots of idx it used. Feature values go to the front of vals. A sparse tuple whose
// indices are exactly 0…n−1, n ≤ data.PrefixCap, gets data.PrefixIdx(n) and
// uses no slot of idx; any other sparse tuple's indices go to the front of
// idx. t's slices are those prefixes with their capacity clamped to count,
// so an append to one reallocates instead of writing into whatever follows
// in the caller's backing array.
func fillTuple(t *data.Tuple, buf []byte, vals []float64, idx []int32) (count, size, ints int) {
	*t = data.Tuple{
		ID:    int64(binary.LittleEndian.Uint64(buf)),
		Label: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
	}
	count = int(binary.LittleEndian.Uint32(buf[17:]))
	vals = vals[:count:count]
	body := buf[tupleHeaderSize:]
	if buf[16] != flagSparse {
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
		}
		t.Dense = vals
		return count, tupleHeaderSize + count*8, 0
	}
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*12+4:]))
	}
	t.SparseVal = vals
	if prefixRun(body, count) {
		t.SparseIdx = data.PrefixIdx(count)
		return count, tupleHeaderSize + count*12, 0
	}
	idx = idx[:count:count]
	for i := range idx {
		idx[i] = int32(binary.LittleEndian.Uint32(body[i*12:]))
	}
	t.SparseIdx = idx
	return count, tupleHeaderSize + count*12, count
}

// prefixRun reports whether the count sparse entries at the front of body
// have the indices 0, 1, …, count−1 and count ≤ data.PrefixCap, so that the
// decoder gives their tuple the shared data.PrefixIdx.
func prefixRun(body []byte, count int) bool {
	if count > data.PrefixCap {
		return false
	}
	for i := 0; i < count; i++ {
		if binary.LittleEndian.Uint32(body[i*12:]) != uint32(i) {
			return false
		}
	}
	return true
}

// ValidateRawTuples checks that raw is exactly count well-formed tuple
// encodings (AppendTuple format) with no trailing bytes, allocating nothing.
// It is the gate for blocks arriving from outside — INSERT, LOAD INTO and
// WAL replay: hostile payloads yield ErrCorrupt, never a panic.
func ValidateRawTuples(raw []byte, count int) error {
	_, _, err := scanRawTuples(raw, count)
	return err
}

// scanRawTuples is pass one of the block decoder: it validates every tuple
// of a raw payload and totals the float64 and int32 slots the block's
// features need. A sparse tuple fillTuple gives data.PrefixIdx needs no
// int32 slot.
func scanRawTuples(raw []byte, count int) (floats, ints int, err error) {
	if count < 0 || count > len(raw)/tupleHeaderSize {
		return 0, 0, fmt.Errorf("%w: tuple count %d exceeds %d-byte payload", ErrCorrupt, count, len(raw))
	}
	off := 0
	for i := 0; i < count; i++ {
		sparse, c, size, err := tupleShape(raw[off:])
		if err != nil {
			return 0, 0, err
		}
		floats += c
		if sparse && !prefixRun(raw[off+tupleHeaderSize:], c) {
			ints += c
		}
		off += size
	}
	if off != len(raw) {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes after %d tuples", ErrCorrupt, len(raw)-off, count)
	}
	return floats, ints, nil
}

// decodeRawTuples decodes the len(dst) tuples of a raw block payload into
// dst, validating all of raw before allocating or writing anything.
//
// Whatever the tuple count, it allocates twice at most: one float64 arena for
// every feature value and one int32 arena for the indices of every sparse
// tuple that does not carry the shared data.PrefixIdx. Each tuple's slices
// are sub-slices of the arenas (or of the shared prefix) with capacity
// clamped to their length. Tuples of one block therefore share backing
// arrays — retaining one tuple keeps its whole block's features reachable —
// but none can grow into a neighbour.
func decodeRawTuples(dst []data.Tuple, raw []byte) error {
	floats, ints, err := scanRawTuples(raw, len(dst))
	if err != nil {
		return err
	}
	vals := make([]float64, floats)
	idx := make([]int32, ints)
	off := 0
	for i := range dst {
		c, size, used := fillTuple(&dst[i], raw[off:], vals, idx)
		vals, idx = vals[c:], idx[used:]
		off += size
	}
	return nil
}

// EncodedTupleSize returns the size of t's encoding in bytes.
func EncodedTupleSize(t *data.Tuple) int {
	if t.IsSparse() {
		return tupleHeaderSize + len(t.SparseIdx)*12
	}
	return tupleHeaderSize + len(t.Dense)*8
}
