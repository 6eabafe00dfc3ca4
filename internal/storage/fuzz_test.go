package storage

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
)

// fuzzTable returns a throwaway table whose block decoder can be pointed at
// arbitrary bytes.
func fuzzTable(compress bool) *Table {
	clock := iosim.NewClock()
	return &Table{
		dev:  iosim.NewDevice(iosim.RAM, clock),
		opts: Options{Compress: compress}.withDefaults(),
	}
}

// validBlockBytes builds a real one-block table and returns the raw bytes of
// block 0, the honest seed the fuzzer mutates.
func validBlockBytes(tb testing.TB, compress bool) []byte {
	return blockBytesOf(tb, testDataset(50, 4), compress)
}

// blockBytesOf returns the raw bytes of block 0 of a table built from ds.
func blockBytesOf(tb testing.TB, ds *data.Dataset, compress bool) []byte {
	clock := iosim.NewClock()
	tab, err := Build(iosim.NewDevice(iosim.RAM, clock), ds, Options{Compress: compress})
	if err != nil {
		tb.Fatal(err)
	}
	return append([]byte(nil), tab.blocks[0]...)
}

// reseal recomputes the CRC so header mutations survive the checksum and
// exercise the validation behind it.
func reseal(b []byte) []byte {
	if len(b) < 24 {
		return b
	}
	payLen := binary.LittleEndian.Uint64(b[12:])
	if payLen > uint64(len(b)-24) {
		return b
	}
	binary.LittleEndian.PutUint32(b[20:], crc32.ChecksumIEEE(b[24:24+payLen]))
	return b
}

// FuzzDecodeBlock throws mutated block images at the decoder. The only
// acceptable outcomes are a decoded tuple slice or an error — never a panic
// and never an unbounded allocation from a hostile count/rawLen/payLen.
func FuzzDecodeBlock(f *testing.F) {
	plain := validBlockBytes(f, false)
	comp := validBlockBytes(f, true)
	f.Add(plain, false)
	f.Add(comp, true)
	// Every row sparse with indices 0…5: the decoder's shared-prefix rows.
	gapFree := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 50, Features: 6, Sparse: true, NNZ: 6, Seed: 12})
	f.Add(blockBytesOf(f, gapFree, false), false)
	f.Add([]byte{}, false)
	f.Add(make([]byte, 23), false)

	// Hostile headers resealed with a valid CRC: huge tuple count, huge
	// rawLen, payLen past the buffer, zero-length everything.
	huge := append([]byte(nil), plain...)
	binary.LittleEndian.PutUint32(huge[0:], 0xFFFFFFFF)
	f.Add(reseal(huge), false)

	bigRaw := append([]byte(nil), comp...)
	binary.LittleEndian.PutUint64(bigRaw[4:], 1<<40)
	f.Add(reseal(bigRaw), true)

	longPay := append([]byte(nil), plain...)
	binary.LittleEndian.PutUint64(longPay[12:], 1<<40)
	f.Add(longPay, false)

	empty := make([]byte, 24)
	f.Add(reseal(empty), false)
	f.Add(reseal(append([]byte(nil), empty...)), true)

	flipped := append([]byte(nil), plain...)
	flipped[24] ^= 0x01
	f.Add(flipped, false)

	f.Fuzz(func(t *testing.T, b []byte, compress bool) {
		tab := fuzzTable(compress)
		count, raw, err := tab.rawPayload(b)
		var tuples []data.Tuple
		if err == nil {
			tuples, err = decodeRawBlock(raw, count)
		}
		if err == nil && compress == false && len(b) >= 24 {
			// A successful decode must account for every payload byte.
			payLen := binary.LittleEndian.Uint64(b[12:])
			if count := binary.LittleEndian.Uint32(b[0:]); int(count) != len(tuples) {
				t.Fatalf("decoded %d tuples, header claims %d", len(tuples), count)
			}
			_ = payLen
		}
	})
}

// FuzzDecodeTuple targets the tuple codec alone: hostile count fields must
// produce ErrCorrupt, not out-of-range slicing or giant allocations.
func FuzzDecodeTuple(f *testing.F) {
	ds := testDataset(3, 4)
	var enc []byte
	for i := range ds.Tuples {
		enc = AppendTuple(enc, &ds.Tuples[i])
	}
	f.Add(enc)
	f.Add(enc[:tupleHeaderSize])
	f.Add([]byte{})

	hostile := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(hostile[17:], 0xFFFFFFFF)
	f.Add(hostile)

	sparse := append([]byte(nil), enc...)
	sparse[16] = flagSparse
	f.Add(sparse)
	badFlag := append([]byte(nil), enc...)
	badFlag[16] = 7
	f.Add(badFlag)

	f.Fuzz(func(t *testing.T, b []byte) {
		for len(b) > 0 {
			tp, n, err := DecodeTuple(b)
			if err != nil {
				return
			}
			if n <= 0 || n > len(b) {
				t.Fatalf("DecodeTuple consumed %d of %d bytes", n, len(b))
			}
			if len(tp.Dense) > len(b)/8+1 {
				t.Fatalf("decoded %d dense values from %d bytes", len(tp.Dense), len(b))
			}
			b = b[n:]
		}
	})
}
