package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/obs"
)

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal.log")
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	path := walPath(t)
	w, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(recs))
	}
	payloads := [][]byte{[]byte("one"), {}, bytes.Repeat([]byte{0xAB}, 5000)}
	for i, p := range payloads {
		lsn, err := w.Append(WALRecordType(i+1), p)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != len(payloads) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(payloads))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Type != WALRecordType(i+1) || !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
	// Appends after reopen continue the LSN sequence.
	if lsn, err := w2.Append(WALAppendBlock, nil); err != nil || lsn != 4 {
		t.Fatalf("post-reopen append = (%d, %v), want (4, nil)", lsn, err)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	path := walPath(t)
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(WALCreateTable, []byte("keep me")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(WALAppendBlock, []byte("torn away")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail mid-record, as a crash during a write would.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf[:len(buf)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	w2, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w2.WithObs(reg)
	defer w2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "keep me" {
		t.Fatalf("torn replay returned %d records (%q)", len(recs), recs)
	}
	// The file itself must be truncated to the valid prefix so the next
	// append starts clean.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := walHeaderSize + len("keep me")
	if len(after) != wantLen {
		t.Fatalf("file is %d bytes after recovery, want %d", len(after), wantLen)
	}
	if lsn, err := w2.Append(WALAppendBlock, []byte("fresh")); err != nil || lsn != 2 {
		t.Fatalf("append after truncation = (%d, %v), want (2, nil)", lsn, err)
	}
	if _, recs, err := reopenWAL(path); err != nil || len(recs) != 2 {
		t.Fatalf("final replay = %d records, err %v; want 2", len(recs), err)
	}
}

func reopenWAL(path string) (*WAL, []WALRecord, error) {
	w, recs, err := OpenWAL(path)
	if err == nil {
		w.Close()
	}
	return w, recs, err
}

func TestWALBitFlipStopsReplay(t *testing.T) {
	var buf []byte
	buf = AppendWALRecord(buf, WALRecord{LSN: 1, Type: WALCreateTable, Payload: []byte("aaa")})
	mid := len(buf)
	buf = AppendWALRecord(buf, WALRecord{LSN: 2, Type: WALAppendBlock, Payload: []byte("bbb")})
	buf = AppendWALRecord(buf, WALRecord{LSN: 3, Type: WALDropTable, Payload: []byte("ccc")})

	// Flip one payload bit in the middle record: replay must stop there —
	// record 3 is unreachable because a corrupt middle means the tail
	// cannot be trusted.
	buf[mid+walHeaderSize] ^= 0x40
	recs, valid := DecodeWALRecords(buf)
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("replay past bit flip: %d records", len(recs))
	}
	if valid != mid {
		t.Fatalf("valid prefix %d, want %d", valid, mid)
	}
}

func TestWALDuplicateLSNSkipped(t *testing.T) {
	var buf []byte
	buf = AppendWALRecord(buf, WALRecord{LSN: 1, Type: WALCreateTable, Payload: []byte("a")})
	buf = AppendWALRecord(buf, WALRecord{LSN: 1, Type: WALAppendBlock, Payload: []byte("dup")})
	buf = AppendWALRecord(buf, WALRecord{LSN: 2, Type: WALAppendBlock, Payload: []byte("b")})
	recs, valid := DecodeWALRecords(buf)
	if valid != len(buf) {
		t.Fatalf("duplicate LSN must not invalidate the tail: valid %d of %d", valid, len(buf))
	}
	if len(recs) != 2 || recs[0].LSN != 1 || recs[1].LSN != 2 {
		t.Fatalf("duplicate record not skipped: %+v", recs)
	}
	if string(recs[1].Payload) != "b" {
		t.Fatalf("wrong surviving record: %q", recs[1].Payload)
	}
}

func TestWALResetKeepsLSNMonotonic(t *testing.T) {
	path := walPath(t)
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 3; i++ {
		if _, err := w.Append(WALAppendBlock, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	lsn, err := w.Append(WALAppendBlock, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("post-reset LSN = %d, want 4 (sequence never restarts)", lsn)
	}
	w.AdvanceLSN(100)
	if lsn, _ := w.Append(WALAppendBlock, nil); lsn != 100 {
		t.Fatalf("AdvanceLSN ignored: got %d, want 100", lsn)
	}
}

func TestBlockPayloadRoundTrip(t *testing.T) {
	ds := testDataset(20, 4)
	var raw []byte
	for i := range ds.Tuples {
		raw = AppendTuple(raw, &ds.Tuples[i])
	}
	rb := RawBlock{Raw: raw, Tuples: len(ds.Tuples), FirstID: ds.Tuples[0].ID}
	table, got, err := DecodeBlockPayload(EncodeBlockPayload("events", rb))
	if err != nil {
		t.Fatal(err)
	}
	if table != "events" || got.Tuples != rb.Tuples || got.FirstID != rb.FirstID || !bytes.Equal(got.Raw, rb.Raw) {
		t.Fatalf("round trip mismatch: %q %+v", table, got)
	}
	// Hostile short payloads error instead of panicking.
	for _, p := range [][]byte{nil, {9}, {0xFF, 0xFF, 1, 2, 3}} {
		if _, _, err := DecodeBlockPayload(p); err == nil {
			t.Fatalf("short payload %v decoded", p)
		}
	}
}

func TestAppendTuplesExtendsTable(t *testing.T) {
	ds := testDataset(500, 8)
	for _, compress := range []bool{false, true} {
		clock := iosim.NewClock()
		dev := iosim.NewDevice(iosim.SSD, clock)
		tab, err := Build(dev, &data.Dataset{
			Name: ds.Name, Task: ds.Task, Features: ds.Features, Classes: ds.Classes,
			Tuples: ds.Tuples[:300],
		}, Options{BlockSize: 4 << 10, Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		before := tab.NumBlocks()
		raws, err := tab.AppendTuples(ds.Tuples[300:])
		if err != nil {
			t.Fatal(err)
		}
		if len(raws) == 0 || tab.NumBlocks() <= before {
			t.Fatalf("compress=%v: append added %d raw blocks, table %d -> %d",
				compress, len(raws), before, tab.NumBlocks())
		}
		if tab.NumTuples() != 500 {
			t.Fatalf("compress=%v: NumTuples = %d, want 500", compress, tab.NumTuples())
		}
		got, err := tab.ScanAll()
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].ID != ds.Tuples[i].ID || got[i].Label != ds.Tuples[i].Label {
				t.Fatalf("compress=%v: tuple %d mismatch after append", compress, i)
			}
		}
		// Replaying the returned raw blocks into an empty table reproduces
		// the appended region bit for bit — the WAL recovery invariant.
		replay := NewEmpty(dev, "replay", ds.Task, ds.Features, ds.Classes,
			Options{BlockSize: 4 << 10, Compress: compress})
		for _, rb := range raws {
			if err := replay.AppendRawBlock(rb); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(replay.blocks, tab.blocks[before:]) {
			t.Fatalf("compress=%v: replayed bytes differ from appended bytes", compress)
		}
	}
}

func TestAppendRawBlockRejectsGarbage(t *testing.T) {
	clock := iosim.NewClock()
	tab := NewEmpty(iosim.NewDevice(iosim.RAM, clock), "t", data.TaskBinary, 4, 2, Options{})
	bad := RawBlock{Raw: []byte{1, 2, 3}, Tuples: 5, FirstID: 0}
	if err := tab.AppendRawBlock(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage raw block accepted: %v", err)
	}
	if tab.NumBlocks() != 0 || tab.NumTuples() != 0 {
		t.Fatal("failed append mutated the table")
	}
}

func TestRawBlockAtRoundTrip(t *testing.T) {
	ds := testDataset(300, 8)
	for _, compress := range []bool{false, true} {
		tab, _ := buildTable(t, ds, Options{BlockSize: 4 << 10, Compress: compress})
		for i := 0; i < tab.NumBlocks(); i++ {
			rb, err := tab.RawBlockAt(i)
			if err != nil {
				t.Fatal(err)
			}
			tuples, err := decodeRawBlock(rb.Raw, rb.Tuples)
			if err != nil {
				t.Fatalf("compress=%v block %d: %v", compress, i, err)
			}
			if len(tuples) != tab.BlockTuples(i) || rb.FirstID != tuples[0].ID {
				t.Fatalf("compress=%v block %d: raw form inconsistent", compress, i)
			}
		}
		if _, err := tab.RawBlockAt(tab.NumBlocks()); err == nil {
			t.Fatal("out-of-range RawBlockAt succeeded")
		}
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	// A training epoch reads a stable prefix while ingestion extends the
	// table; run under -race this is the mutable-table safety test.
	ds := testDataset(2000, 8)
	clock := iosim.NewClock()
	dev := iosim.NewDevice(iosim.RAM, clock)
	tab, err := Build(dev, &data.Dataset{
		Name: "t", Task: ds.Task, Features: ds.Features, Classes: ds.Classes,
		Tuples: ds.Tuples[:1000],
	}, Options{BlockSize: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for off := 1000; off < 2000; off += 100 {
			if _, err := tab.AppendTuples(ds.Tuples[off : off+100]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for pass := 0; pass < 20; pass++ {
			n := tab.NumBlocks()
			for i := 0; i < n; i++ {
				if _, err := tab.ReadBlock(i); err != nil {
					t.Errorf("block %d: %v", i, err)
					return
				}
			}
			if _, err := tab.DecodeAll(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if tab.NumTuples() != 2000 {
		t.Fatalf("NumTuples = %d, want 2000", tab.NumTuples())
	}
}

// resealWAL recomputes one record's CRC at offset off so header mutations
// survive the checksum and exercise the validation behind it.
func resealWAL(b []byte, off int) []byte {
	if len(b) < off+walHeaderSize {
		return b
	}
	payLen := int(binary.LittleEndian.Uint32(b[off+9:]))
	if payLen > len(b)-off-walHeaderSize {
		return b
	}
	crc := crc32.NewIEEE()
	crc.Write(b[off : off+13])
	crc.Write(b[off+walHeaderSize : off+walHeaderSize+payLen])
	binary.LittleEndian.PutUint32(b[off+13:], crc.Sum32())
	return b
}

// FuzzWALReplay throws mutated log images at the replay decoder. The
// invariants: never panic, never allocate past the input, LSNs in the
// returned records strictly increase, and the valid prefix re-decodes to
// exactly the same records (replay is idempotent — the recovery guarantee).
func FuzzWALReplay(f *testing.F) {
	var clean []byte
	clean = AppendWALRecord(clean, WALRecord{LSN: 1, Type: WALCreateTable, Payload: []byte(`{"name":"t"}`)})
	rec2 := len(clean)
	clean = AppendWALRecord(clean, WALRecord{LSN: 2, Type: WALAppendBlock, Payload: bytes.Repeat([]byte{7}, 100)})
	clean = AppendWALRecord(clean, WALRecord{LSN: 3, Type: WALCheckpoint, Payload: []byte(`{"frontier":2}`)})
	f.Add(clean)
	f.Add([]byte{})
	f.Add(clean[:len(clean)-5]) // torn tail mid-record
	f.Add(clean[:rec2+3])       // torn tail mid-header

	// Bit-flipped CRC on the middle record.
	flipped := append([]byte(nil), clean...)
	flipped[rec2+13] ^= 0x01
	f.Add(flipped)

	// Bit-flipped payload (CRC now stale).
	flippedPay := append([]byte(nil), clean...)
	flippedPay[rec2+walHeaderSize] ^= 0x80
	f.Add(flippedPay)

	// Duplicate LSN resealed with a valid CRC.
	dup := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint64(dup[rec2:], 1)
	f.Add(resealWAL(dup, rec2))

	// Hostile payload length resealed.
	hugeLen := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint32(hugeLen[rec2+9:], 0xFFFFFFF0)
	f.Add(hugeLen)

	// All-zero frames and a lone valid header claiming more than exists.
	f.Add(make([]byte, walHeaderSize*3))
	short := AppendWALRecord(nil, WALRecord{LSN: 9, Type: WALAppendBlock, Payload: []byte("xyz")})
	f.Add(short[:len(short)-1])

	f.Fuzz(func(t *testing.T, b []byte) {
		recs, valid := DecodeWALRecords(b)
		if valid < 0 || valid > len(b) {
			t.Fatalf("valid prefix %d outside [0,%d]", valid, len(b))
		}
		var last uint64
		for i, r := range recs {
			if i > 0 && r.LSN <= last {
				t.Fatalf("record %d LSN %d not above %d", i, r.LSN, last)
			}
			last = r.LSN
			if len(r.Payload) > valid {
				t.Fatalf("record %d payload %d bytes exceeds valid prefix %d", i, len(r.Payload), valid)
			}
		}
		// Idempotence: replaying the valid prefix yields the same records.
		again, validAgain := DecodeWALRecords(b[:valid])
		if validAgain != valid || len(again) != len(recs) {
			t.Fatalf("re-replay diverged: %d/%d records, %d/%d valid",
				len(again), len(recs), validAgain, valid)
		}
		for i := range again {
			if again[i].LSN != recs[i].LSN || again[i].Type != recs[i].Type ||
				!bytes.Equal(again[i].Payload, recs[i].Payload) {
				t.Fatalf("re-replay record %d differs", i)
			}
		}
	})
}

func TestWALObsCounters(t *testing.T) {
	path := walPath(t)
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	w.WithObs(reg)
	if _, err := w.Append(WALAppendBlock, []byte("counted")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if reg.Counter(obs.WALAppends) != 1 || reg.Counter(obs.WALSyncs) != 1 {
		t.Fatalf("wal counters not recorded: appends=%d syncs=%d",
			reg.Counter(obs.WALAppends), reg.Counter(obs.WALSyncs))
	}
	if got := reg.Counter(obs.WALAppendBytes); got != int64(walHeaderSize+len("counted")) {
		t.Fatalf("append bytes counter = %d", got)
	}
}

func TestDecodeRawTuplesHostile(t *testing.T) {
	ds := testDataset(5, 4)
	var raw []byte
	for i := range ds.Tuples {
		raw = AppendTuple(raw, &ds.Tuples[i])
	}
	if tuples, err := decodeRawBlock(raw, 5); err != nil || len(tuples) != 5 {
		t.Fatalf("clean decode failed: %d tuples, %v", len(tuples), err)
	}
	cases := []struct {
		raw   []byte
		count int
	}{
		{raw, 4},              // trailing bytes
		{raw, 6},              // count beyond payload
		{raw, -1},             // negative count
		{raw[:len(raw)-2], 5}, // truncated payload
		{nil, 1},
	}
	for i, c := range cases {
		if _, err := decodeRawBlock(c.raw, c.count); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("case %d: got %v, want ErrCorrupt", i, err)
		}
	}
}

func TestWALSequentialLSNsAcrossManyAppends(t *testing.T) {
	path := walPath(t)
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		lsn, err := w.Append(WALAppendBlock, fmt.Appendf(nil, "r%d", i))
		if err != nil || lsn != uint64(i) {
			t.Fatalf("append %d: lsn %d err %v", i, lsn, err)
		}
	}
	w.Close()
	_, recs, err := reopenWAL(path)
	if err != nil || len(recs) != 50 {
		t.Fatalf("replay: %d records, %v", len(recs), err)
	}
}
