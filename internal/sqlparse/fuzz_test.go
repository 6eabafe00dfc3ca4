package sqlparse

import (
	"bufio"
	"encoding/json"
	"go/scanner"
	gotoken "go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse throws arbitrary text at the parser. Parse must return a
// statement or an error, never panic, and a statement it returns must
// render to SQL that parses back to the same statement.
func FuzzParse(f *testing.F) {
	for _, sql := range seedStatements(f) {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		first, err := Parse(sql)
		if err != nil {
			return
		}
		rendered := Render(first)
		second, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which fails to parse: %v", sql, rendered, err)
		}
		if !reflect.DeepEqual(stripRaw(first), stripRaw(second)) {
			t.Fatalf("round trip changed the statement:\n  sql:      %q\n  rendered: %q\n  first:    %#v\n  second:   %#v",
				sql, rendered, first, second)
		}
	})
}

// seedStatements returns every string literal in this package's tests — the
// statements they parse, well formed and malformed — and the SQL of every
// request in the protocol document's transcript.
func seedStatements(tb testing.TB) []string {
	tb.Helper()
	var seeds []string
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		tb.Fatal(err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		fset := gotoken.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(name, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == gotoken.EOF {
				break
			}
			if tok != gotoken.STRING {
				continue
			}
			if v, err := strconv.Unquote(lit); err == nil {
				seeds = append(seeds, v)
			}
		}
	}
	doc, err := os.Open(filepath.Join("..", "..", "docs", "PROTOCOL.md"))
	if err != nil {
		tb.Fatal(err)
	}
	defer doc.Close()
	sc := bufio.NewScanner(doc)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "C: ")
		var req struct{ SQL string }
		if ok && json.Unmarshal([]byte(line), &req) == nil && req.SQL != "" {
			seeds = append(seeds, req.SQL)
		}
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return seeds
}
