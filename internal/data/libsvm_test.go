package data

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestReadLIBSVMBasic(t *testing.T) {
	in := strings.NewReader("+1 1:0.5 3:2\n-1 2:1\n")
	ds, err := ReadLIBSVM(in, "tiny", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 {
		t.Fatalf("len = %d, want 2", ds.Len())
	}
	if ds.Features != 3 {
		t.Fatalf("inferred features = %d, want 3", ds.Features)
	}
	t0 := ds.At(0)
	if t0.Label != 1 || len(t0.SparseIdx) != 2 || t0.SparseIdx[0] != 0 || t0.SparseIdx[1] != 2 {
		t.Fatalf("tuple 0 parsed wrong: %+v", t0)
	}
	if t0.SparseVal[0] != 0.5 || t0.SparseVal[1] != 2 {
		t.Fatalf("tuple 0 values wrong: %v", t0.SparseVal)
	}
}

func TestReadLIBSVMSkipsCommentsAndBlank(t *testing.T) {
	in := strings.NewReader("# header\n\n+1 1:1\n")
	ds, err := ReadLIBSVM(in, "c", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 1 {
		t.Fatalf("len = %d, want 1", ds.Len())
	}
}

func TestReadLIBSVMFixedFeatures(t *testing.T) {
	ds, err := ReadLIBSVM(strings.NewReader("+1 1:1\n"), "f", 100)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Features != 100 {
		t.Fatalf("features = %d, want 100", ds.Features)
	}
}

func TestReadLIBSVMUnsortedIndices(t *testing.T) {
	ds, err := ReadLIBSVM(strings.NewReader("-1 5:5 2:2 9:9\n"), "u", 0)
	if err != nil {
		t.Fatal(err)
	}
	idx := ds.At(0).SparseIdx
	if idx[0] != 1 || idx[1] != 4 || idx[2] != 8 {
		t.Fatalf("indices not sorted: %v", idx)
	}
	val := ds.At(0).SparseVal
	if val[0] != 2 || val[1] != 5 || val[2] != 9 {
		t.Fatalf("values not reordered with indices: %v", val)
	}
}

func TestReadLIBSVMMulticlassDetected(t *testing.T) {
	ds, err := ReadLIBSVM(strings.NewReader("0 1:1\n1 1:1\n2 1:1\n"), "mc", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Task != TaskMulticlass || ds.Classes != 3 {
		t.Fatalf("task=%v classes=%d, want multiclass/3", ds.Task, ds.Classes)
	}
}

// TestReadLIBSVMMustFail pins every rejection's exact text: callers show
// it to users, and the reader's fast path must produce the same text as the
// field-by-field reference below.
func TestReadLIBSVMMustFail(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abc 1:1\n", `libsvm: line 1: bad label "abc": strconv.ParseFloat: parsing "abc": invalid syntax`},
		{"+1 x:1\n", `libsvm: line 1: bad index "x"`},
		{"+1 0:1\n", `libsvm: line 1: bad index "0"`},
		{"+1 1:abc\n", `libsvm: line 1: bad value "abc": strconv.ParseFloat: parsing "abc": invalid syntax`},
		{"+1 11\n", `libsvm: line 1: bad feature "11"`},
		{"+1 :1\n", `libsvm: line 1: bad feature ":1"`},
		{"+1 1:\n", `libsvm: line 1: bad value "": strconv.ParseFloat: parsing "": invalid syntax`},
		{"+1 1:1:1\n", `libsvm: line 1: bad value "1:1": strconv.ParseFloat: parsing "1:1": invalid syntax`},
		{"+1 1:1\n1:1 2:2\n", `libsvm: line 2: bad label "1:1": strconv.ParseFloat: parsing "1:1": invalid syntax`},
		{"+1 " + strings.Repeat("1", 1<<24) + ":1\n", `libsvm: bufio.Scanner: token too long`},
		// An index must fit the storage format's int32 and WriteLIBSVM's
		// int32 idx+1 on the way back out.
		{"1 2147483648:1\n", `libsvm: line 1: bad index "2147483648"`},
		{"1 4294967299:1\n", `libsvm: line 1: bad index "4294967299"`},
		{"1 2:1 5:1 002:2\n", `libsvm: line 1: duplicate index 2`},
		{"1 1:1 1:2\n", `libsvm: line 1: duplicate index 1`},
		{"nan 1:1\n", `libsvm: line 1: bad label "nan": not a finite number`},
		{"1\n-Inf 1:1\n", `libsvm: line 2: bad label "-Inf": not a finite number`},
		{"1 1:NaN\n", `libsvm: line 1: bad value "NaN": not a finite number`},
		{"1 1:1 2:infinity\n", `libsvm: line 1: bad value "infinity": not a finite number`},
		// '#' starts a comment only as a line's first field.
		{"1 1:1 # note\n", `libsvm: line 1: bad feature "#"`},
		// A line holding a byte >= 0x80 splits on Unicode spaces too.
		{"1 1:1\u00a0x:2\n", `libsvm: line 1: bad index "x"`},
		{"1 1:1\x85 2:2\n", `libsvm: line 1: bad value "1\x85": strconv.ParseFloat: parsing "1\x85": invalid syntax`},
		{"1 1:1e999\n", `libsvm: line 1: bad value "1e999": strconv.ParseFloat: parsing "1e999": value out of range`},
	}
	for _, c := range cases {
		_, err := ReadLIBSVM(strings.NewReader(c.in), "bad", 0)
		if err == nil || err.Error() != c.want {
			t.Errorf("input %.40q: error %v, want %s", c.in, err, c.want)
		}
	}
}

// readLIBSVMRef is the field-by-field reader ReadLIBSVM replaced, kept as
// the fuzzer's reference: TrimSpace, strings.Fields and one append per
// feature, plus the rejections added with the one-pass reader (an index
// past int32, a non-finite label or value, a repeated index).
func readLIBSVMRef(r io.Reader, name string, features int) (*Dataset, error) {
	ds := &Dataset{Name: name, Task: TaskBinary, Features: features, Classes: 2}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	maxIdx := -1
	labels := make(map[float64]bool)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		label, err := strconv.ParseFloat(fields[0], 64)
		if err == nil && (math.IsNaN(label) || math.IsInf(label, 0)) {
			err = errNotFinite
		}
		if err != nil {
			return nil, fmt.Errorf("libsvm: line %d: bad label %q: %w", lineNo, fields[0], err)
		}
		t := Tuple{ID: int64(len(ds.Tuples)), Label: label}
		for _, f := range fields[1:] {
			colon := strings.IndexByte(f, ':')
			if colon <= 0 {
				return nil, fmt.Errorf("libsvm: line %d: bad feature %q", lineNo, f)
			}
			idx, err := strconv.Atoi(f[:colon])
			if err != nil || idx < 1 || idx > math.MaxInt32 {
				return nil, fmt.Errorf("libsvm: line %d: bad index %q", lineNo, f[:colon])
			}
			val, err := strconv.ParseFloat(f[colon+1:], 64)
			if err == nil && (math.IsNaN(val) || math.IsInf(val, 0)) {
				err = errNotFinite
			}
			if err != nil {
				return nil, fmt.Errorf("libsvm: line %d: bad value %q: %w", lineNo, f[colon+1:], err)
			}
			t.SparseIdx = append(t.SparseIdx, int32(idx-1))
			t.SparseVal = append(t.SparseVal, val)
			if idx-1 > maxIdx {
				maxIdx = idx - 1
			}
		}
		if t.SparseIdx == nil {
			t.SparseIdx = []int32{}
			t.SparseVal = []float64{}
		}
		refSortSparse(&t)
		for i := 1; i < len(t.SparseIdx); i++ {
			if t.SparseIdx[i] == t.SparseIdx[i-1] {
				return nil, fmt.Errorf("libsvm: line %d: duplicate index %d", lineNo, t.SparseIdx[i]+1)
			}
		}
		labels[label] = true
		ds.Tuples = append(ds.Tuples, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("libsvm: %w", err)
	}
	if ds.Features <= 0 {
		ds.Features = maxIdx + 1
	}
	if len(labels) > 2 {
		ds.Task = TaskMulticlass
		ds.Classes = len(labels)
	}
	return ds, nil
}

func refSortSparse(t *Tuple) {
	if sort.SliceIsSorted(t.SparseIdx, func(i, j int) bool { return t.SparseIdx[i] < t.SparseIdx[j] }) {
		return
	}
	type pair struct {
		i int32
		v float64
	}
	ps := make([]pair, len(t.SparseIdx))
	for i := range ps {
		ps[i] = pair{t.SparseIdx[i], t.SparseVal[i]}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].i < ps[b].i })
	for i := range ps {
		t.SparseIdx[i], t.SparseVal[i] = ps[i].i, ps[i].v
	}
}

// FuzzReadLIBSVM holds the reader to three rules on any input: it never
// panics; it returns the reference's dataset or the reference's error
// text; and a dataset it accepts survives WriteLIBSVM and a re-read.
// Datasets are compared with %#v, which tells nil from empty slices and,
// unlike DeepEqual, calls NaN equal to NaN.
func FuzzReadLIBSVM(f *testing.F) {
	for _, s := range []string{
		"+1 1:0.5 3:2\n-1 2:1\n",
		"# header\n\n+1 1:1\n",
		"-1 5:5 2:2 9:9\n",
		"0 1:1\n1 1:1\n2 1:1\n",
		"1\n-1\r\n\t 1 \v2:3\f4:5 \r\n  # 1 x:y\n",
		"abc 1:1\n", "+1 x:1\n", "+1 0:1\n", "+1 1:abc\n", "+1 11\n",
		"+1 :1\n", "+1 1:\n", "+1 1:1:1\n", "1:1 2:2\n",
		"1 +01:1_0 2:0x1p-2 3:1e400\n",
		"1 2147483648:1\n", "1 2147483649:1\n", "1 4294967299:1\n",
		"1 1:1 1:2\n", "1 3:1 2:1 3:2\n", "nan 1:1\n", "1 1:-Inf\n", "1 1:infinity\n",
		"1\u00a02:3\n", "1 1:1 2:2\u00a03:3\n", "\u00a0# x\n", "1 1:1\u0085 2:2\n", "1 1:1 \xff\n", "\xc2 1:1\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		ds, err := ReadLIBSVM(bytes.NewReader(in), "f", 0)
		ref, refErr := readLIBSVMRef(bytes.NewReader(in), "f", 0)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("error %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		if got, want := fmt.Sprintf("%#v", ds), fmt.Sprintf("%#v", ref); got != want {
			t.Fatalf("dataset differs from the reference:\n got %s\nwant %s", got, want)
		}
		var buf bytes.Buffer
		if err := WriteLIBSVM(&buf, ds); err != nil {
			t.Fatal(err)
		}
		again, err := ReadLIBSVM(&buf, "f", 0)
		if err != nil {
			t.Fatalf("re-read of %q: %v", buf.String(), err)
		}
		if got, want := fmt.Sprintf("%#v", again), fmt.Sprintf("%#v", ds); got != want {
			t.Fatalf("round trip changed the dataset:\n got %s\nwant %s", got, want)
		}
	})
}

func TestLIBSVMRoundTripSparse(t *testing.T) {
	orig := SyntheticBinary(SyntheticConfig{
		Tuples: 50, Features: 100, Sparse: true, NNZ: 8, Order: OrderClustered, Seed: 9})
	var buf bytes.Buffer
	if err := WriteLIBSVM(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLIBSVM(&buf, "rt", orig.Features)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() {
		t.Fatalf("round trip len = %d, want %d", got.Len(), orig.Len())
	}
	for i := range orig.Tuples {
		a, b := orig.At(i), got.At(i)
		if a.Label != b.Label || a.NNZ() != b.NNZ() {
			t.Fatalf("tuple %d mismatch: %v vs %v", i, a, b)
		}
		for j := range a.SparseIdx {
			if a.SparseIdx[j] != b.SparseIdx[j] || a.SparseVal[j] != b.SparseVal[j] {
				t.Fatalf("tuple %d feature %d mismatch", i, j)
			}
		}
	}
}

func TestWriteLIBSVMDenseSkipsZeros(t *testing.T) {
	ds := &Dataset{Features: 3}
	ds.Tuples = []Tuple{{Label: 1, Dense: []float64{1, 0, 3}}}
	var buf bytes.Buffer
	if err := WriteLIBSVM(&buf, ds); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.TrimSpace(buf.String()), "1 1:1 3:3"; got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
}

// TestReadLIBSVMTuplesDoNotAlias: tuples share the reader's chunks, so an
// append to one tuple's features must copy, not write into the next's.
func TestReadLIBSVMTuplesDoNotAlias(t *testing.T) {
	ds, err := ReadLIBSVM(strings.NewReader("1 1:1 2:2\n-1 3:3\n"), "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	first := &ds.Tuples[0]
	first.SparseIdx = append(first.SparseIdx, 7)
	first.SparseVal = append(first.SparseVal, 7)
	if next := ds.At(1); next.SparseIdx[0] != 2 || next.SparseVal[0] != 3 {
		t.Fatalf("appending to tuple 0 changed tuple 1: %v %v", next.SparseIdx, next.SparseVal)
	}
}

// libsvmFile writes a clustered dense dataset of the benchmark's shape as
// LIBSVM text: every feature present, values printed by %g.
func libsvmFile(tb testing.TB, tuples, features, classes int) []byte {
	tb.Helper()
	cfg := SyntheticConfig{Tuples: tuples, Features: features, Classes: classes, Order: OrderClustered, Seed: 301}
	ds := SyntheticBinary(cfg)
	if classes > 2 {
		ds = SyntheticMulticlass(cfg)
	}
	var buf bytes.Buffer
	if err := WriteLIBSVM(&buf, ds); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadLIBSVMAllocs pins the reader's allocations per tuple: its chunks,
// the tuple slice's growth, the scanner buffer and the label set, with
// nothing per line or per feature.
func TestReadLIBSVMAllocs(t *testing.T) {
	const tuples = 2000
	for _, c := range []struct{ features, classes int }{{18, 2}, {64, 10}} {
		file := libsvmFile(t, tuples, c.features, c.classes)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ReadLIBSVM(bytes.NewReader(file), "a", 0); err != nil {
				t.Fatal(err)
			}
		})
		if perTuple := allocs / tuples; perTuple >= 0.05 {
			t.Errorf("%d features: %.3f allocations per tuple (%.0f per file), want < 0.05", c.features, perTuple, allocs)
		}
	}
}

// BenchmarkReadLIBSVM reads a file of train_narrow's shape: 30 000 dense
// tuples of 18 features in two label-clustered classes.
func BenchmarkReadLIBSVM(b *testing.B) {
	file := libsvmFile(b, 30000, 18, 2)
	b.SetBytes(int64(len(file)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadLIBSVM(bytes.NewReader(file), "b", 0); err != nil {
			b.Fatal(err)
		}
	}
}
