package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"corgipile/internal/data"
)

// FuzzDecodeRequest holds decodeRequest to json.Unmarshal: a line the
// one-pass walk accepts is one Unmarshal accepts, with an equal Request,
// and any other line gets Unmarshal's exact error and Request.
func FuzzDecodeRequest(f *testing.F) {
	protocol, err := os.Open(filepath.Join("..", "..", "docs", "PROTOCOL.md"))
	if err != nil {
		f.Fatal(err)
	}
	defer protocol.Close()
	sc := bufio.NewScanner(protocol)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "C: "); ok {
			f.Add([]byte(line))
		}
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		`{"op":"predict","sql":"SELECT * FROM t WHERE label \u003e 0 PREDICT BY m"}`,
		`{"op":"sql","sql":"SELECT \"x\""}`,
		"{\"op\":\"hello\",\"client\":\"café\"}",
		"{\"op\":\"hello\",\"client\":\"\xff\xfe\"}",
		`{"op":"sql","SQL":"SHOW TABLES"}`,
		`{"op":"sql","op":"quit"}`,
		`{"op":null}`,
		`{"op":"train","sql":"SELECT 1","wait":"yes"}`,
		`{"op":"train","wait":true,"detach":false,"stats":true,"trace":"t-1","job":"j1","client":"c"}`,
		`{"op":{"nested":true}}`,
		`{"op":"quit"} trailing`,
		`{"op":"quit"}}`,
		" { \"op\" : \"quit\" , \"wait\" : true } ",
		"{\"op\":\"quit\"\v}", "{\f\"op\":\"quit\"}",
		`{}`, `{} {}`, `{`, `[]`, `"op"`, `{"op":"sql",}`, `{"op":1}`, `{"unknown":"x"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want Request
		wantErr := json.Unmarshal(line, &want)
		if fast, ok := decodeFlat(line); ok && (wantErr != nil || fast != want) {
			t.Fatalf("one pass read %q as %+v; json.Unmarshal: %+v, %v", line, fast, want, wantErr)
		}
		var got Request
		err := decodeRequest(line, &got)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() || got != want {
			t.Fatalf("decodeRequest(%q) = %+v, %v; json.Unmarshal: %+v, %v", line, got, err, want, wantErr)
		}
	})
}

// TestDecodeFlatReadsEveryField: a line setting each of Request's fields,
// as Client encodes it, takes the one-pass walk.
func TestDecodeFlatReadsEveryField(t *testing.T) {
	var req Request
	v := reflect.ValueOf(&req).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("value " + strconv.Itoa(i))
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Request.%s is a %s, which the one-pass walk does not read", v.Type().Field(i).Name, f.Kind())
		}
	}
	var line bytes.Buffer
	if err := json.NewEncoder(&line).Encode(req); err != nil {
		t.Fatal(err)
	}
	if got, ok := decodeFlat(bytes.TrimSpace(line.Bytes())); !ok || got != req {
		t.Fatalf("decodeFlat(%s) = %+v, %v", line.Bytes(), got, ok)
	}
}

// TestInsertEitherDecodePath sends one INSERT to a fresh server as
// Client.Exec encodes it, which takes the one-pass walk, and to another
// with its key spelt "SQL", which takes json.Unmarshal: both answer alike
// and append the same rows. A malformed line then gets ERR_BAD_REQUEST
// with encoding/json's text, and the session keeps answering.
func TestInsertEitherDecodePath(t *testing.T) {
	// Decimals of every kind: short ones, one with more than 19 digits
	// that decimal.Parse leaves to strconv, and exponents.
	vals := []string{"0.5", "-1.25", "0.000012345678901234567", "3", "-2.5e-3", "0.1", "17.125"}
	insert := func(send func(c *Client, sql string) *Response) (*Response, []data.Tuple, *Client) {
		srv := testServer(t, Config{})
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		srv.catalog.RLock()
		entry, _ := srv.dbs.Table("t")
		srv.catalog.RUnlock()
		var sb strings.Builder
		sb.WriteString("INSERT INTO t VALUES ")
		for i := 0; i < 20; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("(" + strconv.Itoa(1-2*(i%2)))
			for f := 0; f < entry.Table.Features(); f++ {
				sb.WriteString(", " + vals[(i+f)%len(vals)])
			}
			sb.WriteString(")")
		}
		resp := send(c, sb.String())
		rows, err := entry.Table.DecodeAll()
		if err != nil {
			t.Fatal(err)
		}
		return resp, rows, c
	}

	fast, fastRows, _ := insert(func(c *Client, sql string) *Response {
		line, err := json.Marshal(Request{Op: "sql", SQL: sql})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := decodeFlat(line); !ok {
			t.Fatalf("Client's INSERT line does not take the one-pass walk: %s", line)
		}
		resp, err := c.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	})
	slow, slowRows, c := insert(func(c *Client, sql string) *Response {
		line, err := json.Marshal(map[string]string{"op": "sql", "SQL": sql})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := decodeFlat(line); ok {
			t.Fatalf("a line keyed \"SQL\" takes the one-pass walk: %s", line)
		}
		raw, err := c.DoLine(string(line))
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := json.Unmarshal([]byte(raw), &resp); err != nil {
			t.Fatal(err)
		}
		return &resp
	})
	if !slow.OK || slow.Message != fast.Message {
		t.Fatalf("fallback answered %+v; one pass answered %+v", slow, fast)
	}
	if !reflect.DeepEqual(slowRows, fastRows) {
		t.Fatal("the two INSERTs left different tables")
	}

	bad := `{"op":"sql","sql":"SHOW TABLES"`
	wantErr := json.Unmarshal([]byte(bad), new(Request))
	if wantErr == nil {
		t.Fatal("malformed line decoded")
	}
	raw, err := c.DoLine(bad)
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal([]byte(raw), &resp); err != nil {
		t.Fatal(err)
	}
	if want := "request is not valid JSON: " + wantErr.Error(); resp.OK || resp.Error == nil ||
		resp.Error.Code != ErrBadRequest || resp.Error.Message != want {
		t.Fatalf("malformed line answered %s, want %s %q", raw, ErrBadRequest, want)
	}
	if _, err := c.Hello("still alive"); err != nil {
		t.Fatalf("session died after a malformed line: %v", err)
	}
}

// BenchmarkDecodeRequest decodes the line Client sends for a 20-row
// INSERT of 64 features, in one pass and with json.Unmarshal.
func BenchmarkDecodeRequest(b *testing.B) {
	rng := rand.New(rand.NewSource(64))
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for r := 0; r < 20; r++ {
		if r > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(" + strconv.Itoa(r%2))
		for f := 0; f < 64; f++ {
			sb.WriteString(", " + strconv.FormatFloat(rng.NormFloat64(), 'f', -1, 64))
		}
		sb.WriteByte(')')
	}
	line, err := json.Marshal(Request{Op: "sql", SQL: sb.String()})
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []struct {
		name   string
		decode func([]byte, *Request) error
	}{{"one-pass", decodeRequest}, {"json.Unmarshal", func(line []byte, req *Request) error { return json.Unmarshal(line, req) }}} {
		b.Run(d.name, func(b *testing.B) {
			b.SetBytes(int64(len(line)))
			for i := 0; i < b.N; i++ {
				var req Request
				if err := d.decode(line, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
