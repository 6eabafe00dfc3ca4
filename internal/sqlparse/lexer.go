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
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lex splits input into tokens. Keywords are not distinguished from
// identifiers at this stage; the parser matches them case-insensitively.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
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
				return nil, fmt.Errorf("sqlparse: unterminated string at offset %d", i)
			}
			toks = append(toks, token{tokString, input[i+1 : j], i})
			i = j + 1
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
				return nil, fmt.Errorf("sqlparse: unit suffix on exponent literal %q at offset %d", input[i:j], i)
			}
			toks = append(toks, token{kind, input[i:j], i})
			i = j
		case isLetter(c) || c == '_':
			j := i + 1
			for j < len(input) && (isLetter(input[j]) || isDigit(input[j]) || input[j] == '_') {
				j++
			}
			toks = append(toks, token{tokWord, input[i:j], i})
			i = j
		case strings.IndexByte("(),=*;.<>!", c) >= 0:
			toks = append(toks, token{tokPunct, string(c), i})
			i++
		default:
			return nil, fmt.Errorf("sqlparse: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks, nil
}

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return unicode.IsLetter(rune(c)) }
