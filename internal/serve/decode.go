package serve

import (
	"bytes"
	"encoding/json"
)

// decodeRequest decodes one request line into req exactly as
// json.Unmarshal does. A flat object whose keys are Request's JSON names
// spelt exactly, and whose values are true, false or strings of printable
// ASCII without a backslash, is read in one walk over its bytes. Client
// sends such a line for a statement of printable ASCII without the bytes
// its encoder escapes: <, >, &, " and \. Any other line goes to
// json.Unmarshal, so every error text and every corner of encoding/json's
// semantics stay its own.
func decodeRequest(line []byte, req *Request) error {
	if r, ok := decodeFlat(line); ok {
		*req = r
		return nil
	}
	return json.Unmarshal(line, req)
}

// jsonSpace marks the bytes JSON allows between tokens, and plainByte
// the bytes a string decodes to unchanged: printable ASCII except the
// quote and the backslash.
var jsonSpace, plainByte = func() (space, plain [256]bool) {
	for _, b := range []byte(" \t\n\r") {
		space[b] = true
	}
	for b := 0x20; b < 0x7f; b++ {
		plain[b] = b != '"' && b != '\\'
	}
	return space, plain
}()

// decodeFlat is decodeRequest's one walk; ok is false for any line it
// does not read.
func decodeFlat(b []byte) (Request, bool) {
	var r Request
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return r, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return r, skipSpace(b, i+1) == len(b)
	}
	for {
		key, j, ok := plainString(b, i)
		if !ok {
			return r, false
		}
		str, flag := r.field(key)
		if i = skipSpace(b, j); i == len(b) || b[i] != ':' {
			return r, false
		}
		i = skipSpace(b, i+1)
		switch {
		case str != nil:
			var s []byte
			if s, i, ok = plainString(b, i); !ok {
				return r, false
			}
			*str = string(s)
		case flag != nil && bytes.HasPrefix(b[i:], []byte("true")):
			*flag, i = true, i+len("true")
		case flag != nil && bytes.HasPrefix(b[i:], []byte("false")):
			*flag, i = false, i+len("false")
		default:
			return r, false
		}
		if i = skipSpace(b, i); i == len(b) {
			return r, false
		}
		switch b[i] {
		case '}':
			return r, skipSpace(b, i+1) == len(b)
		case ',':
			i = skipSpace(b, i+1)
		default:
			return r, false
		}
	}
}

// field returns the Request field a JSON key names, spelt exactly: a
// string field or a bool field, or neither.
func (r *Request) field(key []byte) (*string, *bool) {
	switch string(key) {
	case "op":
		return &r.Op, nil
	case "client":
		return &r.Client, nil
	case "sql":
		return &r.SQL, nil
	case "job":
		return &r.Job, nil
	case "trace":
		return &r.Trace, nil
	case "wait":
		return nil, &r.Wait
	case "detach":
		return nil, &r.Detach
	case "stats":
		return nil, &r.Stats
	}
	return nil, nil
}

// plainString reads the string starting at b[i] when it holds only plain
// bytes, returning its contents and the offset past its closing quote.
func plainString(b []byte, i int) (s []byte, end int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, 0, false
	}
	j := i + 1
	for j < len(b) && plainByte[b[j]] {
		j++
	}
	if j == len(b) || b[j] != '"' {
		return nil, 0, false
	}
	return b[i+1 : j], j + 1, true
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && jsonSpace[b[i]] {
		i++
	}
	return i
}
