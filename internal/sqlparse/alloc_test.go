package sqlparse

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// insertText renders an INSERT of rows rows of a label and width features,
// written the way a client formats float64s: shortest round-trip decimals.
func insertText(rows, width int) string {
	rng := rand.New(rand.NewSource(int64(width)))
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for r := 0; r < rows; r++ {
		if r > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(" + strconv.Itoa(r%2))
		for f := 0; f < width; f++ {
			b.WriteString(", ")
			b.WriteString(strconv.FormatFloat(rng.NormFloat64(), 'f', -1, 64))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// Parsing an INSERT allocates per row, not per value: the statement, its
// growing row list and one exact-size feature slice per row, however wide
// the rows are.
func TestParseInsertAllocsPerRow(t *testing.T) {
	const rows = 20
	allocs := map[int]float64{}
	for _, width := range []int{18, 64} {
		sql := insertText(rows, width)
		allocs[width] = testing.AllocsPerRun(20, func() {
			if _, err := Parse(sql); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[18] != allocs[64] || allocs[64] > rows+16 {
		t.Fatalf("a %d-row INSERT allocates %v times at 18 features and %v at 64; want the same count, at most %d",
			rows, allocs[18], allocs[64], rows+16)
	}
}

// BenchmarkParseInsert parses a 20-row INSERT of 64 features, the shape
// of the benchmark's train_mlp_batch INSERTs.
func BenchmarkParseInsert(b *testing.B) {
	sql := insertText(20, 64)
	b.SetBytes(int64(len(sql)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}
