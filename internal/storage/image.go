package storage

import (
	"fmt"
	"sync"

	"corgipile/internal/data"
)

// image is a table's decoded form: every block's tuples, materialised at
// most once for as long as the block is part of the table. Blocks are
// immutable and checksummed when appended, so decoding them is a pure
// function of bytes that never change; ReadBlock, DecodeBlocks and DecodeAll
// all hand out views of the one result. The image grows lazily — a block is
// decoded when its first reader asks — and TruncateBlocks cuts it.
//
// Lock order: image.mu, then Table.mu. A fill holds image.mu from the moment
// it snapshots the table's bytes until the decoded block is published, and
// TruncateBlocks takes image.mu first, so no block can be rolled back and
// re-appended under a decode: what is published as block i is always decoded
// from the bytes that are block i. Appends take only Table.mu and never wait
// for a decode.
//
// Readers hold their views without any lock. That is safe because a slot of
// tuples is written once, under mu, before any view covering it is handed
// out, and never again: growing past the capacity copies to a new array and
// leaves the old one to its holders, and a cut clamps the capacity so the
// blocks that replace the cut ones land in a new array too.
type image struct {
	mu sync.Mutex
	// tuples has one slot per tuple of blocks [0, len(decoded)), in storage
	// order; block i's slots are filled iff decoded[i].
	tuples  []data.Tuple
	decoded []bool
	warm    int // blocks [0, warm) are all decoded
}

// truncate cuts the image to the first n blocks, which hold tuples tuples.
// Callers hold mu.
func (img *image) truncate(n, tuples int) {
	if n >= len(img.decoded) {
		return
	}
	img.decoded = img.decoded[:n:n]
	img.tuples = img.tuples[:tuples:tuples]
	img.warm = min(img.warm, n)
}

// view returns the image's tuples of blocks [from, to), decoding the ones no
// reader has asked for before. It charges nothing.
func (t *Table) view(from, to int) ([]data.Tuple, error) {
	img := &t.img
	img.mu.Lock()
	defer img.mu.Unlock()
	meta, blocks := t.snapshot()
	if from < 0 || from > to || to > len(meta) {
		return nil, fmt.Errorf("storage: block range [%d,%d) out of range [0,%d]", from, to, len(meta))
	}
	if n := len(meta); n > len(img.decoded) {
		img.tuples = extended(img.tuples, firstTuple(meta, n))
		img.decoded = extended(img.decoded, n)
	}
	for i := max(from, img.warm); i < to; i++ {
		if img.decoded[i] {
			continue
		}
		m := meta[i]
		count, raw, err := t.rawPayload(blocks[i])
		if err == nil && count != m.Tuples {
			err = fmt.Errorf("%w: block %d holds %d tuples, its index entry says %d", ErrCorrupt, i, count, m.Tuples)
		}
		if err == nil {
			err = decodeRawTuples(img.tuples[m.Start:m.Start+m.Tuples], raw)
		}
		if err != nil {
			return nil, err
		}
		img.decoded[i] = true
	}
	for img.warm < len(img.decoded) && img.decoded[img.warm] {
		img.warm++
	}
	lo, hi := firstTuple(meta, from), firstTuple(meta, to)
	return img.tuples[lo:hi:hi], nil
}

// extended returns s grown to n elements, the new ones zero, in one
// allocation at most. Nothing past len(s) may ever have been written, which
// holds for the image's slices: slots are written below the length only, and
// a cut clamps the capacity.
func extended[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(make([]T, 0, n+n/4), s...)
	}
	return s[:n]
}

// firstTuple returns the storage-order position of block i's first tuple;
// i may be len(meta), the position one past the table's last tuple.
func firstTuple(meta []BlockMeta, i int) int {
	if i == 0 {
		return 0
	}
	return meta[i-1].Start + meta[i-1].Tuples
}
