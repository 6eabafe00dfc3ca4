package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"testing/quick"

	"corgipile/internal/data"
)

func TestTupleRoundTripDense(t *testing.T) {
	orig := data.Tuple{ID: 42, Label: -1, Dense: []float64{1.5, -2.25, 0, math.Pi}}
	buf := AppendTuple(nil, &orig)
	if len(buf) != EncodedTupleSize(&orig) {
		t.Fatalf("encoded %d bytes, size func says %d", len(buf), EncodedTupleSize(&orig))
	}
	got, n, err := DecodeTuple(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if got.ID != 42 || got.Label != -1 || got.IsSparse() {
		t.Fatalf("decoded header wrong: %+v", got)
	}
	for i := range orig.Dense {
		if got.Dense[i] != orig.Dense[i] {
			t.Fatalf("dense[%d] = %v, want %v", i, got.Dense[i], orig.Dense[i])
		}
	}
}

func TestTupleRoundTripSparse(t *testing.T) {
	orig := data.Tuple{ID: 7, Label: 1, SparseIdx: []int32{3, 99, 1000}, SparseVal: []float64{0.5, -4, 8}}
	buf := AppendTuple(nil, &orig)
	got, _, err := DecodeTuple(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsSparse() || got.NNZ() != 3 {
		t.Fatalf("decoded shape wrong: %+v", got)
	}
	for i := range orig.SparseIdx {
		if got.SparseIdx[i] != orig.SparseIdx[i] || got.SparseVal[i] != orig.SparseVal[i] {
			t.Fatalf("sparse[%d] mismatch", i)
		}
	}
}

func TestTupleRoundTripEmpty(t *testing.T) {
	orig := data.Tuple{ID: 1, Label: 0, SparseIdx: []int32{}, SparseVal: []float64{}}
	buf := AppendTuple(nil, &orig)
	got, _, err := DecodeTuple(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsSparse() || got.NNZ() != 0 {
		t.Fatalf("empty sparse tuple decoded wrong: %+v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeTuple([]byte{1, 2, 3}); err == nil {
		t.Fatal("short header should error")
	}
	// Valid header claiming more payload than present.
	orig := data.Tuple{ID: 1, Dense: []float64{1, 2, 3}}
	buf := AppendTuple(nil, &orig)
	if _, _, err := DecodeTuple(buf[:len(buf)-4]); err == nil {
		t.Fatal("truncated dense payload should error")
	}
	s := data.Tuple{ID: 1, SparseIdx: []int32{1}, SparseVal: []float64{2}}
	sb := AppendTuple(nil, &s)
	if _, _, err := DecodeTuple(sb[:len(sb)-2]); err == nil {
		t.Fatal("truncated sparse payload should error")
	}
	// Corrupt flags byte.
	buf[16] = 9
	if _, _, err := DecodeTuple(buf); err == nil {
		t.Fatal("unknown flags should error")
	}
}

func TestMultipleTuplesStream(t *testing.T) {
	var buf []byte
	tuples := []data.Tuple{
		{ID: 0, Label: -1, Dense: []float64{1}},
		{ID: 1, Label: 1, SparseIdx: []int32{5}, SparseVal: []float64{2}},
		{ID: 2, Label: -1, Dense: []float64{3, 4}},
	}
	for i := range tuples {
		buf = AppendTuple(buf, &tuples[i])
	}
	for i := range tuples {
		got, n, err := DecodeTuple(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != tuples[i].ID {
			t.Fatalf("stream tuple %d has id %d", i, got.ID)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d leftover bytes", len(buf))
	}
}

// Property: round trip preserves any finite dense tuple.
func TestRoundTripProperty(t *testing.T) {
	f := func(id int64, label float64, vals []float64) bool {
		if math.IsNaN(label) {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) {
				return true
			}
		}
		orig := data.Tuple{ID: id, Label: label, Dense: vals}
		if vals == nil {
			orig.Dense = []float64{}
		}
		got, n, err := DecodeTuple(AppendTuple(nil, &orig))
		if err != nil || n != EncodedTupleSize(&orig) {
			return false
		}
		if got.ID != id || got.Label != label || len(got.Dense) != len(orig.Dense) {
			return false
		}
		for i := range orig.Dense {
			if got.Dense[i] != orig.Dense[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedSizeMatchesDataEstimate(t *testing.T) {
	// data.Tuple.EncodedSize must stay in sync with the real codec.
	d := data.Tuple{ID: 1, Label: 1, Dense: []float64{1, 2, 3}}
	if EncodedTupleSize(&d) != d.EncodedSize() {
		t.Fatalf("dense: codec %d vs estimate %d", EncodedTupleSize(&d), d.EncodedSize())
	}
	s := data.Tuple{ID: 1, Label: 1, SparseIdx: []int32{1, 2}, SparseVal: []float64{1, 2}}
	if EncodedTupleSize(&s) != s.EncodedSize() {
		t.Fatalf("sparse: codec %d vs estimate %d", EncodedTupleSize(&s), s.EncodedSize())
	}
}

// DecodeTuple decodes one tuple from the front of buf, returning the tuple
// and the number of bytes consumed. The tuple owns its slices.
func DecodeTuple(buf []byte) (data.Tuple, int, error) {
	sparse, count, size, err := tupleShape(buf)
	if err != nil {
		return data.Tuple{}, 0, err
	}
	var t data.Tuple
	idx := make([]int32, count)
	fillTuple(&t, buf, make([]float64, count), idx)
	if sparse { // private indices, even where the decoder shares data.PrefixIdx
		for i := range idx {
			idx[i] = int32(binary.LittleEndian.Uint32(buf[tupleHeaderSize+i*12:]))
		}
		t.SparseIdx = idx
	}
	return t, size, nil
}

// decodeRawBlock decodes exactly count tuples from a raw block payload
// (concatenated AppendTuple encodings with no trailing bytes) the way a
// block read does: ValidateRawTuples, then the arena decoder. Hostile
// payloads must yield ErrCorrupt, never a panic or an allocation larger
// than the payload warrants.
func decodeRawBlock(raw []byte, count int) ([]data.Tuple, error) {
	if err := ValidateRawTuples(raw, count); err != nil {
		return nil, err
	}
	tuples := make([]data.Tuple, count)
	return tuples, decodeRawTuples(tuples, raw)
}

// decodeTupleLoop is the reference the arena decoder is held to: the
// tuple-at-a-time DecodeTuple loop the raw-block decoder used to be, with
// its count and trailing-byte checks.
func decodeTupleLoop(raw []byte, count int) ([]data.Tuple, error) {
	if count < 0 || count > len(raw)/tupleHeaderSize {
		return nil, fmt.Errorf("%w: tuple count %d exceeds %d-byte payload", ErrCorrupt, count, len(raw))
	}
	tuples := make([]data.Tuple, 0, count)
	for len(tuples) < count {
		t, n, err := DecodeTuple(raw)
		if err != nil {
			return nil, err
		}
		tuples = append(tuples, t)
		raw = raw[n:]
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d tuples", ErrCorrupt, len(raw), count)
	}
	return tuples, nil
}

// randomBlock draws a block of the given kind: dense, sparse, mixed, zero
// (tuples without features, dense and sparse), empty (no tuples) or prefix
// (sparse rows whose indices are 0…n−1, short, at data.PrefixCap and just
// past it, beside near misses, empty sparse rows and dense rows).
func randomBlock(rng *rand.Rand, kind string) (raw []byte, count int) {
	if kind != "empty" {
		count = 1 + rng.Intn(40)
	}
	for i := 0; i < count; i++ {
		tp := data.Tuple{ID: rng.Int63(), Label: rng.NormFloat64()}
		n := rng.Intn(9)
		if kind == "zero" {
			n = 0
		}
		switch {
		case kind == "prefix" && rng.Intn(3) == 0:
			tp.Dense = make([]float64, n)
		case kind == "prefix":
			if rng.Intn(8) == 0 {
				n = data.PrefixCap - 1 + rng.Intn(3)
			}
			tp.SparseIdx, tp.SparseVal = make([]int32, n), make([]float64, n)
			for j := range tp.SparseIdx {
				tp.SparseIdx[j], tp.SparseVal[j] = int32(j), rng.NormFloat64()
			}
			if n > 0 && rng.Intn(4) == 0 { // a near miss: one index off
				tp.SparseIdx[rng.Intn(n)]++
			}
		case kind == "sparse" || (kind != "dense" && rng.Intn(2) == 0):
			tp.SparseIdx, tp.SparseVal = make([]int32, n), make([]float64, n)
			for j := range tp.SparseIdx {
				tp.SparseIdx[j], tp.SparseVal[j] = rng.Int31(), rng.NormFloat64()
			}
		default:
			tp.Dense = make([]float64, n)
		}
		for j := range tp.Dense {
			tp.Dense[j] = rng.NormFloat64()
		}
		raw = AppendTuple(raw, &tp)
	}
	return raw, count
}

// isPrefixRow reports whether t is a sparse tuple whose indices are exactly
// 0…n−1 with n ≤ data.PrefixCap: a row the decoder must give
// data.PrefixIdx.
func isPrefixRow(t *data.Tuple) bool {
	if !t.IsSparse() || len(t.SparseIdx) > data.PrefixCap {
		return false
	}
	for i, idx := range t.SparseIdx {
		if int(idx) != i {
			return false
		}
	}
	return true
}

// Property: the one-pass arena decoder returns exactly what the per-tuple
// loop returns — deep-equal tuples (nil-ness of every slice included) on
// well-formed blocks, and the same error text on damaged ones — and the
// allocation-free validator agrees with both. Exactly the sparse rows with
// indices 0…n−1, n ≤ data.PrefixCap, carry the shared data.PrefixIdx
// (Tuple.Row recognises them); every other row keeps private indices.
func TestDecodeRawTuplesMatchesTupleLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, kind := range []string{"dense", "sparse", "mixed", "zero", "empty", "prefix"} {
		decoded, rejected, shared := 0, 0, 0
		for iter := 0; iter < 200; iter++ {
			raw, count := randomBlock(rng, kind)
			switch rng.Intn(4) { // three in four blocks are damaged
			case 0:
				if len(raw) > 0 {
					raw[rng.Intn(len(raw))] ^= byte(1 + rng.Intn(255))
				}
			case 1:
				raw = raw[:rng.Intn(len(raw)+1)]
			case 2:
				count += rng.Intn(5) - 2
			}
			want, wantErr := decodeTupleLoop(raw, count)
			got, gotErr := decodeRawBlock(raw, count)
			valErr := ValidateRawTuples(raw, count)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || fmt.Sprint(valErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s #%d: arena err %v, validator err %v, loop err %v", kind, iter, gotErr, valErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s #%d: arena decode differs from the tuple loop\n got: %+v\nwant: %+v", kind, iter, got, want)
			}
			for i := range got {
				_, row := got[i].Row()
				if prefix := got[i].IsSparse() && row; prefix != isPrefixRow(&want[i]) {
					t.Fatalf("%s #%d: tuple %d (%d indices) carries the shared prefix: %v, want %v",
						kind, iter, i, len(want[i].SparseIdx), prefix, !prefix)
				} else if prefix {
					shared++
				}
				if _, row := want[i].Row(); want[i].IsSparse() && row {
					t.Fatalf("%s #%d: the reference loop's tuple %d carries the shared prefix", kind, iter, i)
				}
			}
			if wantErr == nil {
				decoded++
			} else {
				rejected++
			}
		}
		if decoded == 0 || rejected == 0 || (kind == "prefix" && shared == 0) {
			t.Fatalf("%s: %d decoded, %d rejected, %d shared prefixes: the generator no longer covers its cases",
				kind, decoded, rejected, shared)
		}
	}
}

// Tuples of one block share backing arrays, but every slice is clamped to
// its own length: an append by a holder must reallocate, never write into
// the next tuple's features.
func TestDecodedTuplesDoNotAliasOnAppend(t *testing.T) {
	var raw []byte
	src := []data.Tuple{
		{ID: 0, Dense: []float64{1, 2}},
		{ID: 1, Dense: []float64{3, 4}},
		{ID: 2, SparseIdx: []int32{5}, SparseVal: []float64{6}},
		{ID: 3, SparseIdx: []int32{7}, SparseVal: []float64{8}},
		{ID: 4, SparseIdx: []int32{0, 1}, SparseVal: []float64{9, 10}},
		{ID: 5, SparseIdx: []int32{0, 1, 2}, SparseVal: []float64{11, 12, 13}},
	}
	for i := range src {
		raw = AppendTuple(raw, &src[i])
	}
	got, err := decodeRawBlock(raw, len(src))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		for _, c := range []int{cap(got[i].Dense) - len(got[i].Dense), cap(got[i].SparseIdx) - len(got[i].SparseIdx), cap(got[i].SparseVal) - len(got[i].SparseVal)} {
			if c != 0 {
				t.Fatalf("tuple %d has %d spare capacity into the shared arena", i, c)
			}
		}
	}
	_ = append(got[0].Dense, -1)
	_ = append(got[2].SparseIdx, -1)
	_ = append(got[2].SparseVal, -1)
	_ = append(got[4].SparseIdx, -1) // the shared prefix: must not write index 2
	if !reflect.DeepEqual(got[1].Dense, src[1].Dense) ||
		!reflect.DeepEqual(got[3].SparseIdx, src[3].SparseIdx) || !reflect.DeepEqual(got[3].SparseVal, src[3].SparseVal) ||
		!reflect.DeepEqual(got[5].SparseIdx, src[5].SparseIdx) {
		t.Fatalf("append on one tuple wrote into its neighbour: %+v", got)
	}
}

// INSERT, LOAD INTO, WAL replay and Build validate every block they append;
// that must cost no allocation however many tuples the block holds.
func TestValidateRawTuplesDoesNotAllocate(t *testing.T) {
	raw, count := randomBlock(rand.New(rand.NewSource(1)), "mixed")
	if n := testing.AllocsPerRun(100, func() {
		if err := ValidateRawTuples(raw, count); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ValidateRawTuples allocates %v times per block, want 0", n)
	}
}

// TestMain runs the package's tests, then checks that none of them wrote
// into the shared data.PrefixIdx, which every decoded gap-free row of every
// table image reads.
func TestMain(m *testing.M) {
	code := m.Run()
	for i, idx := range data.PrefixIdx(data.PrefixCap) {
		if int(idx) != i {
			fmt.Fprintf(os.Stderr, "FAIL: data.PrefixIdx[%d] = %d after the tests, want %d\n", i, idx, i)
			code = 1
			break
		}
	}
	os.Exit(code)
}
