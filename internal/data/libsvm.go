package data

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"corgipile/internal/decimal"
)

// ReadLIBSVM parses a dataset in LIBSVM text format:
//
//	<label> <index>:<value> <index>:<value> ...
//
// Indices are 1-based in the file and converted to 0-based; one must be
// below 2³¹ and appear at most once on its line. Labels and values must be
// finite. features, when positive, fixes the dimensionality; otherwise it
// is inferred as the maximum index seen. Lines that are empty or start
// with '#' are skipped, and fields split as strings.Fields splits them.
//
// The reader splits each line in one walk over its bytes, without
// converting an ASCII line to a string, parses numbers in the common
// decimal form itself (decimal.Parse), and cuts every tuple's SparseIdx
// and SparseVal from shared chunks (arena), so a file costs a few dozen
// allocations in all.
func ReadLIBSVM(r io.Reader, name string, features int) (*Dataset, error) {
	p := libsvmParser{labels: make(map[float64]bool), maxIdx: -1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		p.lineNo++
		if err := p.line(sc.Bytes()); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("libsvm: %w", err)
	}
	ds := &Dataset{Name: name, Task: TaskBinary, Features: features, Classes: 2, Tuples: p.tuples}
	if ds.Features <= 0 {
		ds.Features = p.maxIdx + 1
	}
	if len(p.labels) > 2 {
		ds.Task = TaskMulticlass
		ds.Classes = len(p.labels)
	}
	return ds, nil
}

// errNotFinite is the cause of a "bad label" or "bad value" error for NaN
// or ±Inf, which strconv.ParseFloat accepts: a NaN label would be a class
// of its own, and a non-finite value poisons the first weight it touches.
var errNotFinite = errors.New("not a finite number")

// Byte classes for the field walk: the ASCII spaces strings.Fields splits
// on, the index separator, and the bytes >= 0x80 that send a line through
// strings.Fields itself, which also splits on Unicode spaces.
const (
	byteOther = iota
	byteSpace
	byteColon
	byteHigh
)

var byteClass = func() (c [256]uint8) {
	for _, b := range []byte("\t\n\v\f\r ") {
		c[b] = byteSpace
	}
	c[':'] = byteColon
	for b := 0x80; b < 0x100; b++ {
		c[b] = byteHigh
	}
	return c
}()

// libsvmParser is ReadLIBSVM's state: the tuples so far, and the tuple
// the current line is building.
type libsvmParser struct {
	tuples []Tuple
	arena  arena
	labels map[float64]bool
	maxIdx int
	lineNo int

	label  float64
	prev   int32 // the line's last index, to see whether it arrived sorted
	sorted bool
}

// line parses one line. Fields are cut at ASCII spaces; the first byte >=
// 0x80 drops what the line has parsed and hands it to unicodeLine. Every
// field parsed before that byte ends at an ASCII space, so it is a field
// of strings.Fields too, and an error it raised is the same error.
func (p *libsvmParser) line(b []byte) error {
	n := 0 // fields parsed
	for i := 0; ; {
		for i < len(b) && byteClass[b[i]] == byteSpace {
			i++
		}
		if i == len(b) {
			break
		}
		if n == 0 && b[i] == '#' {
			return nil
		}
		start, colon := i, -1
		for {
			for i < len(b) && byteClass[b[i]] == byteOther {
				i++
			}
			if i == len(b) || byteClass[b[i]] == byteSpace {
				break
			}
			if byteClass[b[i]] == byteHigh {
				p.arena.drop()
				return p.unicodeLine(b)
			}
			if colon < 0 {
				colon = i - start
			}
			i++
		}
		if err := p.field(n, b[start:i], colon); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		return nil
	}
	return p.endTuple()
}

// unicodeLine parses a line holding a byte >= 0x80 the way the reader
// always has: TrimSpace, then strings.Fields.
func (p *libsvmParser) unicodeLine(b []byte) error {
	line := strings.TrimSpace(string(b))
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	for n, f := range strings.Fields(line) {
		if err := p.field(n, []byte(f), strings.IndexByte(f, ':')); err != nil {
			return err
		}
	}
	return p.endTuple()
}

// field parses a line's n-th field: the label when n is 0, else an
// index:value pair whose first ':' is at offset colon (-1 if none).
func (p *libsvmParser) field(n int, f []byte, colon int) error {
	if n == 0 {
		label, err := parseFinite(f)
		if err != nil {
			return fmt.Errorf("libsvm: line %d: bad label %q: %w", p.lineNo, f, err)
		}
		p.label, p.prev, p.sorted = label, -1, true
		return nil
	}
	if colon <= 0 {
		return fmt.Errorf("libsvm: line %d: bad feature %q", p.lineNo, f)
	}
	// The 0-based index must fit the storage format's int32, and
	// WriteLIBSVM's int32 idx+1 must not wrap on the way back out.
	idx, err := strconv.Atoi(string(f[:colon]))
	if err != nil || idx < 1 || idx > math.MaxInt32 {
		return fmt.Errorf("libsvm: line %d: bad index %q", p.lineNo, f[:colon])
	}
	val, err := parseFinite(f[colon+1:])
	if err != nil {
		return fmt.Errorf("libsvm: line %d: bad value %q: %w", p.lineNo, f[colon+1:], err)
	}
	i := int32(idx - 1)
	if i <= p.prev {
		p.sorted = false
	}
	p.prev = i
	p.arena.push(i, val)
	return nil
}

// endTuple closes the line's tuple: sorted by index, each index once.
func (p *libsvmParser) endTuple() error {
	t := Tuple{ID: int64(len(p.tuples)), Label: p.label}
	t.SparseIdx, t.SparseVal = p.arena.cut()
	if !p.sorted {
		sortSparse(&t)
		for i := 1; i < len(t.SparseIdx); i++ {
			if t.SparseIdx[i] == t.SparseIdx[i-1] {
				return fmt.Errorf("libsvm: line %d: duplicate index %d", p.lineNo, t.SparseIdx[i]+1)
			}
		}
	}
	if k := len(t.SparseIdx); k > 0 && int(t.SparseIdx[k-1]) > p.maxIdx {
		p.maxIdx = int(t.SparseIdx[k-1])
	}
	p.labels[t.Label] = true
	p.tuples = append(p.tuples, t)
	return nil
}

// parseFinite parses a label or value: decimal.Parse's common form
// directly, anything else with strconv.ParseFloat (string(f) does not
// escape, so a field of up to 32 bytes is converted on the stack).
func parseFinite(f []byte) (float64, error) {
	if v, ok := decimal.Parse(f); ok {
		return v, nil
	}
	v, err := strconv.ParseFloat(string(f), 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = errNotFinite
	}
	return v, err
}

// arena hands out tuples' SparseIdx and SparseVal as sub-slices of shared
// chunks, capacity clamped so that an append to one tuple's slice copies
// instead of overwriting the next tuple's entries. Chunks start at
// minArenaChunk entries and double up to maxArenaChunk, so a tiny file
// stays cheap and a large one takes a few dozen allocations.
type arena struct {
	idx   []int32
	val   []float64
	start int // the open tuple's first entry
}

const (
	minArenaChunk = 64
	maxArenaChunk = 1 << 16
)

func (a *arena) push(i int32, v float64) {
	if len(a.idx) == cap(a.idx) {
		a.grow()
	}
	a.idx = append(a.idx, i)
	a.val = append(a.val, v)
}

// grow moves the open tuple's entries to a new chunk with room for as
// many again.
func (a *arena) grow() {
	open := len(a.idx) - a.start
	size := min(max(2*cap(a.idx), minArenaChunk), maxArenaChunk)
	size = max(size, 2*open) // a tuple longer than a chunk
	idx := make([]int32, open, size)
	val := make([]float64, open, size)
	copy(idx, a.idx[a.start:])
	copy(val, a.val[a.start:])
	a.idx, a.val, a.start = idx, val, 0
}

// cut closes the open tuple and returns its entries; a tuple without
// features gets empty, non-nil slices.
func (a *arena) cut() ([]int32, []float64) {
	if a.idx == nil {
		a.grow()
	}
	end := len(a.idx)
	idx, val := a.idx[a.start:end:end], a.val[a.start:end:end]
	a.start = end
	return idx, val
}

// drop discards the open tuple's entries.
func (a *arena) drop() {
	a.idx, a.val = a.idx[:a.start], a.val[:a.start]
}

// WriteLIBSVM writes the dataset in LIBSVM text format with 1-based indices.
// Dense tuples are written as fully dense sparse rows.
func WriteLIBSVM(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	for i := range ds.Tuples {
		t := &ds.Tuples[i]
		if _, err := fmt.Fprintf(bw, "%g", t.Label); err != nil {
			return err
		}
		if t.IsSparse() {
			for j, idx := range t.SparseIdx {
				if _, err := fmt.Fprintf(bw, " %d:%g", idx+1, t.SparseVal[j]); err != nil {
					return err
				}
			}
		} else {
			for j, v := range t.Dense {
				if v == 0 {
					continue
				}
				if _, err := fmt.Fprintf(bw, " %d:%g", j+1, v); err != nil {
					return err
				}
			}
		}
		if _, err := bw.WriteString("\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// sortSparse orders a tuple's entries by index; ReadLIBSVM calls it only
// for a line whose indices did not arrive in increasing order.
func sortSparse(t *Tuple) {
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
