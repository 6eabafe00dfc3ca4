// Package sqlparse implements the mini SQL dialect of the in-DB ML
// interface:
//
//	CREATE TABLE t AS SYNTHETIC(workload='higgs', scale=0.1, order='clustered')
//	    WITH device='hdd', block_size=10MB;
//	SELECT * FROM t [WHERE label = 1] TRAIN BY svm MODEL m1
//	    WITH learning_rate=0.1, max_epoch_num=20, shuffle='corgipile';
//	SELECT * FROM t PREDICT BY m1 LIMIT 10;
//	SHOW TABLES; SHOW MODELS; DROP TABLE t; DROP MODEL m1;
//
// The TRAIN BY / PREDICT BY forms follow the paper's Section 6 query
// templates.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokWord
	tokNumber  // 123, 1.5, -2, 1e-05
	tokUnitNum // 10MB, 8KB — number with an immediately attached unit
	tokString  // 'quoted' or "quoted"
	tokPunct   // ( ) , = * ;
)

type token struct {
	kind tokenKind
	text string
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer hands the parser one token at a time. Keywords are not
// distinguished from identifiers at this stage; the parser matches them
// case-insensitively. Token texts are substrings of the input.
type lexer struct {
	input string
	off   int   // offset of the first byte after tok
	tok   token // the current token
	// err is the first lexical error; from it on, tok is end of input.
	err error
}

func newLexer(input string) lexer {
	l := lexer{input: input}
	l.advance()
	return l
}

// advance lexes the token after the current one into tok. At end of input,
// and after an error, it leaves tok at end of input.
func (l *lexer) advance() {
	input, i := l.input, l.off
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(input) && input[i+1] == '-':
			// SQL line comment.
			for i < len(input) && input[i] != '\n' {
				i++
			}
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			for j < len(input) && input[j] != quote {
				j++
			}
			if j >= len(input) {
				l.fail(fmt.Errorf("sqlparse: unterminated string at offset %d", i))
				return
			}
			l.tok, l.off = token{tokString, input[i+1 : j]}, j+1
			return
		case isDigit(c) || (c == '-' && i+1 < len(input) && isDigit(input[i+1])):
			j := i + 1
			for j < len(input) && (isDigit(input[j]) || input[j] == '.') {
				j++
			}
			kind := tokNumber
			// An exponent ([eE][+-]?digits) is part of the number; without
			// its digits the e is left to be read as a unit below.
			exponent := false
			if j < len(input) && (input[j] == 'e' || input[j] == 'E') {
				k := j + 1
				if k < len(input) && (input[k] == '+' || input[k] == '-') {
					k++
				}
				if k < len(input) && isDigit(input[k]) {
					for k < len(input) && isDigit(input[k]) {
						k++
					}
					j, exponent = k, true
				}
			}
			// A unit suffix attached with no space (10MB) merges in.
			for j < len(input) && isLetter(input[j]) {
				kind = tokUnitNum
				j++
			}
			if exponent && kind == tokUnitNum {
				l.fail(fmt.Errorf("sqlparse: unit suffix on exponent literal %q at offset %d", input[i:j], i))
				return
			}
			l.tok, l.off = token{kind, input[i:j]}, j
			return
		case isLetter(c) || c == '_':
			j := i + 1
			for j < len(input) && (isLetter(input[j]) || isDigit(input[j]) || input[j] == '_') {
				j++
			}
			l.tok, l.off = token{tokWord, input[i:j]}, j
			return
		case strings.IndexByte("(),=*;.<>!", c) >= 0:
			l.tok, l.off = token{tokPunct, input[i : i+1]}, i+1
			return
		default:
			l.fail(fmt.Errorf("sqlparse: unexpected character %q at offset %d", c, i))
			return
		}
	}
	l.tok, l.off = token{tokEOF, ""}, len(input)
}

// fail records a lexical error and ends the token stream.
func (l *lexer) fail(err error) {
	l.err, l.tok, l.off = err, token{tokEOF, ""}, len(l.input)
}

// commasBefore counts the commas in the raw input after the current token
// and before the next byte c. It reads bytes, not tokens, so a comma or c
// inside a string or comment miscounts: the result is a size hint only.
func (l *lexer) commasBefore(c byte) int {
	rest := l.input[l.off:]
	if end := strings.IndexByte(rest, c); end >= 0 {
		rest = rest[:end]
	}
	return strings.Count(rest, ",")
}

// drain lexes the rest of the input and returns the first lexical error in
// all of it, if any.
func (l *lexer) drain() error {
	for l.tok.kind != tokEOF {
		l.advance()
	}
	return l.err
}

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return unicode.IsLetter(rune(c)) }

// lowerIdent lowercases a word's ASCII letters and keeps every other byte.
// The lexer reads words byte by byte, so a Unicode lowering, which can
// change a word's other bytes, could yield text that no longer lexes as the
// word.
func lowerIdent(s string) string {
	for i := 0; i < len(s); i++ {
		if 'A' <= s[i] && s[i] <= 'Z' {
			b := []byte(s)
			for j := i; j < len(b); j++ {
				if 'A' <= b[j] && b[j] <= 'Z' {
					b[j] += 'a' - 'A'
				}
			}
			return string(b)
		}
	}
	return s
}
