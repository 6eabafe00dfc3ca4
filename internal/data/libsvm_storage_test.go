package data_test

import (
	"bytes"
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/storage"
)

// TestReadLIBSVMBuildsReferenceBlocks holds the reader to what CREATE
// TABLE ... FROM stores: on a file of train_narrow's shape, every block's
// raw bytes equal those of a table built from the reference reader's
// dataset, so the same file yields the same table and WAL records.
func TestReadLIBSVMBuildsReferenceBlocks(t *testing.T) {
	file := data.LIBSVMFile(t, 30000, 18, 2)
	build := func(read func() (*data.Dataset, error)) *storage.Table {
		t.Helper()
		ds, err := read()
		if err != nil {
			t.Fatal(err)
		}
		tab, err := storage.Build(iosim.NewDevice(iosim.SSD, iosim.NewClock()), ds, storage.Options{BlockSize: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	got := build(func() (*data.Dataset, error) { return data.ReadLIBSVM(bytes.NewReader(file), "t", 0) })
	want := build(func() (*data.Dataset, error) { return data.ReadLIBSVMRef(bytes.NewReader(file), "t", 0) })
	if got.NumBlocks() != want.NumBlocks() || got.Features() != want.Features() {
		t.Fatalf("%d blocks of %d features, reference %d of %d", got.NumBlocks(), got.Features(), want.NumBlocks(), want.Features())
	}
	for i := 0; i < want.NumBlocks(); i++ {
		g, err := got.RawBlockAt(i)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.RawBlockAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Raw, w.Raw) || g.Tuples != w.Tuples || g.FirstID != w.FirstID {
			t.Fatalf("block %d differs from the reference's", i)
		}
	}
}
