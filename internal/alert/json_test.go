package alert

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"skynet/internal/hierarchy"
)

// checkJSONAgainstOracle holds the scanner to its contract on one input:
// AppendJSON and json.Unmarshal into a zero Alert accept or reject
// together; an accepted row equals the oracle's Alert field by field; a
// rejected line leaves the batch as it was; columns stay in lockstep; and
// no column aliases the input buffer. It decodes twice through sc (cold
// and warm caches) and once without a scratch. Reports whether the input
// was accepted.
func checkJSONAgainstOracle(t *testing.T, data []byte, sc *WireScratch) bool {
	t.Helper()
	var want Alert
	werr := json.Unmarshal(data, &want)
	pre := testAlert()
	for pass, scratch := range []*WireScratch{sc, sc, nil} {
		// Decode from a buffer we can clobber afterwards, like the TCP
		// reader's reused read buffer.
		buf := append([]byte(nil), data...)
		var b Batch
		b.Append(&pre) // a row a rejected line must not disturb
		err := b.AppendJSON(buf, scratch)
		if (err == nil) != (werr == nil) {
			t.Fatalf("pass %d: scanner err=%v, oracle err=%v, in=%q", pass, err, werr, data)
		}
		wantRows := 1
		if err == nil {
			wantRows = 2
		}
		if b.Len() != wantRows {
			t.Fatalf("pass %d: %d rows after decode, want %d, in=%q", pass, b.Len(), wantRows, data)
		}
		if !columnsInLockstep(&b) {
			t.Fatalf("pass %d: ragged columns after decode of %q", pass, data)
		}
		for i := range buf {
			buf[i] = 0xAA
		}
		var got Alert
		b.AlertAt(0, &got)
		got.ID = pre.ID
		if !jsonFieldsEqual(&got, &pre) {
			t.Fatalf("pass %d: earlier row disturbed by decode of %q: %+v", pass, data, got)
		}
		if err != nil {
			continue
		}
		b.AlertAt(1, &got)
		got.ID = want.ID // no ID column
		if !jsonFieldsEqual(&got, &want) {
			t.Fatalf("pass %d: scanner diverges from json.Unmarshal (or aliased the buffer):\n got:  %+v\n want: %+v\n in: %q", pass, got, want, data)
		}
		if b.PID[1] != NoID || b.TID[1] != NoID || b.CS[1] != NoID {
			t.Fatalf("pass %d: dense-ID columns not NoID", pass)
		}
	}
	return werr == nil
}

// columnsInLockstep reports whether every column has b.Len() rows.
func columnsInLockstep(b *Batch) bool {
	n := b.Len()
	return len(b.End) == n && len(b.Source) == n && len(b.Type) == n && len(b.Class) == n &&
		len(b.Location) == n && len(b.Peer) == n && len(b.Value) == n && len(b.Count) == n &&
		len(b.CircuitSet) == n && len(b.Raw) == n && len(b.PID) == n && len(b.TID) == n && len(b.CS) == n
}

// jsonFieldsEqual compares every Alert field: times by Equal, the value
// by its bits (so -0 and 0 differ).
func jsonFieldsEqual(a, b *Alert) bool {
	return a.ID == b.ID && a.Source == b.Source && a.Type == b.Type && a.Class == b.Class &&
		a.Time.Equal(b.Time) && a.End.Equal(b.End) &&
		a.Location == b.Location && a.Peer == b.Peer &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		a.Count == b.Count && a.CircuitSet == b.CircuitSet && a.Raw == b.Raw
}

// jsonLine wraps members in the fixed part of a valid alert object.
func jsonLine(members string) string {
	line := `{"source":"ping","type":"packet loss","class":"failure","location":"R|C|L|S|K|d"`
	if members != "" {
		line += "," + members
	}
	return line + "}"
}

// adversarialStrings are the string payloads the round-trip tests push
// through type, circuitset, raw and location segments.
var adversarialStrings = []string{
	"plain",
	"<b>a&b</b>", // json.Marshal writes < > &
	`he said "no"`,
	`back\slash \\ twice`,
	"tab\there", "line\nfeed", "cr\rhere", "bell\a nul\x00 esc\x1b del\x7f",
	"\b\f",
	"naïve café", "日本語のログ", "emoji 😀 pair", "\U0001F600\U0001F601",
	"line sep\u2028para sep\u2029", // json.Marshal escapes these too
	"a/b", "trailing\\",
	"bad utf8 \xff\xfe here", "cut rune \xe6\x97", "cesu \xed\xa0\x80", // encoded as U+FFFD
	"\ufffd literal replacement",
	strings.Repeat("long ", 2000),
}

// TestJSONRoundTripAdversarial encodes alerts carrying every adversarial
// string with json.Marshal (the Encoder's output) and holds the scanner
// to the oracle on each line.
func TestJSONRoundTripAdversarial(t *testing.T) {
	var sc WireScratch
	for _, s := range adversarialStrings {
		a := testAlert()
		a.Type, a.CircuitSet, a.Raw = s, s, s
		if !strings.Contains(s, hierarchy.Sep) && s != "" {
			loc, err := hierarchy.New("RG", s, "LS")
			if err != nil {
				t.Fatal(err)
			}
			a.Location, a.Peer = loc, loc.Parent()
		}
		line, err := json.Marshal(&a)
		if err != nil {
			t.Fatal(err)
		}
		if !checkJSONAgainstOracle(t, line, &sc) {
			t.Errorf("encoder output rejected: %q", line)
		}
	}
}

// TestJSONTimestamps walks the timestamp forms: Z and numeric offsets,
// 0–9 (and more) fractional digits, month ends and leap days, and the
// forms time.Time.UnmarshalJSON rejects.
func TestJSONTimestamps(t *testing.T) {
	accept := []string{
		"2024-07-02T11:00:00Z",
		"2024-07-02T11:00:00+08:00",
		"2024-07-02T11:00:00-03:30",
		"2024-07-02T11:00:00.5+08:00",
		"2024-01-29T00:00:00Z", "2024-01-30T00:00:00Z", "2024-01-31T23:59:59Z",
		"2024-02-29T12:00:00Z", // leap day
		"2000-02-29T12:00:00Z",
		"2024-04-30T12:00:00Z", "2024-12-31T23:59:59.999999999Z",
		"0001-01-01T00:00:00Z", // the zero time, as the Encoder writes it
		"9999-12-31T23:59:59Z",
		"2024-07-02T11:00:00.1234567891234Z", // digits beyond nanoseconds are dropped
		"2024-07-02T1:00:00Z",                // time.Parse's lenient hour
		"2024-07-02T11:00:00,5Z",             // ... and comma
	}
	for frac := 1; frac <= 9; frac++ {
		accept = append(accept, "2024-07-02T11:00:00."+strings.Repeat("7", frac)+"Z")
	}
	reject := []string{
		"2024-07-02T11:00:60Z", // second 60
		"2024-07-02T24:00:00Z",
		"2023-02-29T12:00:00Z", "2024-02-30T12:00:00Z", "2024-04-31T12:00:00Z",
		"2024-13-01T00:00:00Z", "2024-00-10T00:00:00Z", "2024-07-00T00:00:00Z",
		"2024-07-02T11:00:00", "2024-07-02 11:00:00Z", "2024-07-02t11:00:00z",
		"2024-07-02T11:00:00+0800", "2024-07-02T11:00:00.Z",
		"", "yesterday", "1719918000",
		`2024-07-02T11:00:00\u005a`, // a JSON string for "...Z", but time does not unescape
	}
	var sc WireScratch
	for _, ts := range accept {
		line := jsonLine(`"time":"` + ts + `","end":"` + ts + `"`)
		if !checkJSONAgainstOracle(t, []byte(line), &sc) {
			t.Errorf("timestamp %q rejected", ts)
		}
	}
	for _, ts := range reject {
		line := jsonLine(`"time":"` + ts + `"`)
		if checkJSONAgainstOracle(t, []byte(line), &sc) {
			t.Errorf("timestamp %q accepted", ts)
		}
	}
	// And the values come out right, not merely equal to the oracle's.
	var b Batch
	if err := b.AppendJSON([]byte(jsonLine(`"time":"2024-02-29T23:59:59.25+08:00","end":"2024-03-31T00:00:00Z"`)), &sc); err != nil {
		t.Fatal(err)
	}
	if want := time.Date(2024, 2, 29, 15, 59, 59, 250e6, time.UTC); !b.Time[0].Equal(want) {
		t.Errorf("time = %v, want %v", b.Time[0], want)
	}
	if want := time.Date(2024, 3, 31, 0, 0, 0, 0, time.UTC); !b.End[0].Equal(want) {
		t.Errorf("end = %v, want %v", b.End[0], want)
	}
}

// TestJSONObjectCorners pins one line per clause of the scanner's
// contract; each is also checked against the oracle.
func TestJSONObjectCorners(t *testing.T) {
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	cases := []struct {
		name, line string
		accept     bool
		check      func(t *testing.T, b *Batch)
	}{
		{name: "empty object", line: `{}`, accept: true},
		{name: "top-level null", line: ` null `, accept: true},
		{name: "white space everywhere", line: " {\t\"type\" :\r\n \"x\" , \"count\" : 3 } \n", accept: true,
			check: func(t *testing.T, b *Batch) {
				if b.Type[0] != "x" || b.Count[0] != 3 {
					t.Errorf("got type %q count %d", b.Type[0], b.Count[0])
				}
			}},
		{name: "unknown members with nested values skipped",
			line:   jsonLine(`"x":{"a":[1,2.5e-3,{"b":null,"c":[true,false,"s\"\\"]}],"type":"inner"},"y":[],"z":{},"raw":"kept"`),
			accept: true,
			check: func(t *testing.T, b *Batch) {
				if b.Type[0] != "packet loss" || b.Raw[0] != "kept" {
					t.Errorf("got type %q raw %q", b.Type[0], b.Raw[0])
				}
			}},
		{name: "null members leave the field alone",
			line:   `{"source":"ping","source":null,"type":null,"class":null,"time":null,"end":null,"location":null,"peer":null,"value":null,"count":null,"circuitset":null,"raw":null,"id":null}`,
			accept: true,
			check: func(t *testing.T, b *Batch) {
				if b.Source[0] != SourcePing || b.Type[0] != "" || !b.Time[0].IsZero() {
					t.Errorf("got source %v type %q time %v", b.Source[0], b.Type[0], b.Time[0])
				}
			}},
		{name: "duplicate members, last wins",
			line:   jsonLine(`"type":"second","count":1,"count":7,"location":"A|B","raw":"r1","raw":"r2"`),
			accept: true,
			check: func(t *testing.T, b *Batch) {
				if b.Type[0] != "second" || b.Count[0] != 7 || b.Raw[0] != "r2" || b.Location[0] != hierarchy.MustNew("A", "B") {
					t.Errorf("got type %q count %d raw %q loc %v", b.Type[0], b.Count[0], b.Raw[0], b.Location[0])
				}
			}},
		{name: "id accepted and dropped", line: jsonLine(`"id":18446744073709551615`), accept: true},
		{name: "member names fold case", line: `{"SOURCE":"snmp","Type":"t","ſource":"ping","CircuitSet":"cs"}`, accept: true,
			check: func(t *testing.T, b *Batch) {
				if b.Source[0] != SourcePing || b.Type[0] != "t" || b.CircuitSet[0] != "cs" {
					t.Errorf("got source %v type %q cs %q", b.Source[0], b.Type[0], b.CircuitSet[0])
				}
			}},
		{name: "escaped member name", line: `{"ty\u0070e":"t","\u0073ource":"ping"}`, accept: true,
			check: func(t *testing.T, b *Batch) {
				if b.Source[0] != SourcePing || b.Type[0] != "t" {
					t.Errorf("got source %v type %q", b.Source[0], b.Type[0])
				}
			}},
		{name: "escapes in enum values", line: `{"source":"p\u0069ng","class":"fa\u0069lure"}`, accept: true},
		{name: "surrogate pair and lone surrogates", line: jsonLine(`"raw":"\ud83d\ude00 \ud83d x \ude00 \ud83dA"`), accept: true,
			check: func(t *testing.T, b *Batch) {
				if want := "\U0001F600 \ufffd x \ufffd \ufffdA"; b.Raw[0] != want {
					t.Errorf("raw = %q, want %q", b.Raw[0], want)
				}
			}},
		{name: "root location and peer", line: jsonLine(`"location":"","peer":""`), accept: true},
		{name: "value forms", line: jsonLine(`"value":-0.0e+0`), accept: true},
		{name: "value underflows to zero", line: jsonLine(`"value":1e-400`), accept: true},
		{name: "negative count decodes (validation rejects it later)", line: jsonLine(`"count":-5`), accept: true},
		{name: "nesting at the oracle's limit", line: `{"x":` + deep(jsonMaxDepth-1) + `}`, accept: true},

		{name: "nesting past the oracle's limit", line: `{"x":` + deep(jsonMaxDepth) + `}`},
		{name: "count 1.5", line: jsonLine(`"count":1.5`)},
		{name: "count 1e3", line: jsonLine(`"count":1e3`)},
		{name: "count overflows", line: jsonLine(`"count":9223372036854775808`)},
		{name: "count as string", line: jsonLine(`"count":"3"`)},
		{name: "id negative", line: jsonLine(`"id":-1`)},
		{name: "id minus zero", line: jsonLine(`"id":-0`)},
		{name: "value out of range", line: jsonLine(`"value":1e999`)},
		{name: "value leading zero", line: jsonLine(`"value":01`)},
		{name: "value bare dot", line: jsonLine(`"value":.5`)},
		{name: "value hex", line: jsonLine(`"value":0x10`)},
		{name: "value plus", line: jsonLine(`"value":+1`)},
		{name: "value NaN", line: jsonLine(`"value":NaN`)},
		{name: "value as bool", line: jsonLine(`"value":true`)},
		{name: "type as number", line: jsonLine(`"type":3`)},
		{name: "type as object", line: jsonLine(`"type":{}`)},
		{name: "raw as array", line: jsonLine(`"raw":["x"]`)},
		{name: "source as number", line: jsonLine(`"source":1`)},
		{name: "unknown source", line: `{"source":"unknown"}`},
		{name: "unknown class", line: `{"class":"severe"}`},
		{name: "source wrong case", line: `{"source":"Ping"}`},
		{name: "time as number", line: jsonLine(`"time":1719918000`)},
		{name: "location with empty segment", line: `{"location":"a||b"}`},
		{name: "location too deep", line: `{"location":"a|b|c|d|e|f|g"}`},
		{name: "an error is not undone by a later duplicate", line: jsonLine(`"count":1.5,"count":2`)},
		{name: "top-level array", line: `[]`},
		{name: "top-level string", line: `"x"`},
		{name: "top-level number", line: `12`},
		{name: "top-level true", line: `true`},
		{name: "empty input", line: ``},
		{name: "white space only", line: " \t"},
		{name: "trailing text", line: `{} x`},
		{name: "two objects", line: `{}{}`},
		{name: "trailing text after null", line: `null null`},
		{name: "truncated", line: `{"type":"x"`},
		{name: "truncated literal", line: `{"x":nul}`},
		{name: "truncated escape", line: `{"type":"\u00`},
		{name: "trailing comma", line: `{"type":"x",}`},
		{name: "missing colon", line: `{"type" "x"}`},
		{name: "unquoted member name", line: `{type:"x"}`},
		{name: "single quotes", line: `{'type':'x'}`},
		{name: "bad escape", line: `{"type":"\x41"}`},
		{name: "bad unicode escape", line: `{"type":"\u12g4"}`},
		{name: "control character in string", line: "{\"type\":\"a\tb\"}"},
		{name: "control character in skipped string", line: "{\"x\":\"a\nb\"}"},
		{name: "syntax error inside skipped value", line: `{"x":[1,]}`},
		{name: "mismatched brackets in skipped value", line: `{"x":[}]`},
		{name: "vertical tab is not JSON white space", line: "{\v}"},
		{name: "byte order mark", line: "\xef\xbb\xbf{}"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sc WireScratch
			if got := checkJSONAgainstOracle(t, []byte(c.line), &sc); got != c.accept {
				t.Fatalf("accepted = %v, want %v", got, c.accept)
			}
			if c.check != nil {
				var b Batch
				if err := b.AppendJSON([]byte(c.line), &sc); err != nil {
					t.Fatal(err)
				}
				c.check(t, &b)
			}
		})
	}
}

// TestDecoderKeepsID: Decode is the scanner plus the one member that has
// no column.
func TestDecoderKeepsID(t *testing.T) {
	d := NewDecoder(strings.NewReader(jsonLine(`"id":77,"count":3`) + "\n" + jsonLine(`"count":4`) + "\n"))
	var a Alert
	if err := d.Decode(&a); err != nil {
		t.Fatal(err)
	}
	if a.ID != 77 || a.Count != 3 {
		t.Errorf("first alert: id %d count %d", a.ID, a.Count)
	}
	if err := d.Decode(&a); err != nil {
		t.Fatal(err)
	}
	if a.ID != 0 || a.Count != 4 {
		t.Errorf("second alert: id %d count %d (state leaked from the first?)", a.ID, a.Count)
	}
}

// TestScratchLocationFormsDoNotCollide decodes the same bytes as a wire
// location and as a JSON location through one scratch: "a/b" is two
// segments in the pipe format and one in JSON, so a shared cache would
// hand one form's parse to the other.
func TestScratchLocationFormsDoNotCollide(t *testing.T) {
	var sc WireScratch
	two, one := hierarchy.MustNew("a", "b"), hierarchy.MustNew("a/b")
	wire := []byte("0|0|ping|t|failure|a/b|a/b|0|1||")
	line := []byte(`{"location":"a/b","peer":"a/b"}`)
	for round := 0; round < 2; round++ { // second round: both caches warm
		for _, wireFirst := range []bool{true, false} {
			var b Batch
			var werr, jerr error
			if wireFirst {
				werr, jerr = b.AppendWireScratch(wire, &sc), b.AppendJSON(line, &sc)
			} else {
				jerr, werr = b.AppendJSON(line, &sc), b.AppendWireScratch(wire, &sc)
			}
			if werr != nil || jerr != nil {
				t.Fatal(werr, jerr)
			}
			w, j := 0, 1
			if !wireFirst {
				w, j = 1, 0
			}
			if b.Location[w] != two || b.Peer[w] != two {
				t.Errorf("wire location = %v / %v, want %v", b.Location[w], b.Peer[w], two)
			}
			if b.Location[j] != one || b.Peer[j] != one {
				t.Errorf("json location = %v / %v, want %v", b.Location[j], b.Peer[j], one)
			}
		}
	}
}

// TestLinesReadSize: the framer asks its reader for a whole buffer at a
// time, so a socket with a backlog is drained in 64 KB reads.
func TestLinesReadSize(t *testing.T) {
	var r sizeRecorder
	r.data = bytes.Repeat([]byte(jsonLine("")+"\n"), 4000)
	total := len(r.data)
	l := NewLines(&r)
	n := 0
	for {
		if _, err := l.Next(); err != nil {
			break
		}
		n++
	}
	if n != 4000 {
		t.Fatalf("framed %d lines, want 4000", n)
	}
	if r.maxAsk < MaxLineBytes-1024 {
		t.Errorf("largest read asked for %d bytes, want about %d", r.maxAsk, MaxLineBytes)
	}
	if want := total/(MaxLineBytes/2) + 2; r.reads > want {
		t.Errorf("%d reads for %d bytes, want at most %d", r.reads, total, want)
	}
}

type sizeRecorder struct {
	data   []byte
	reads  int
	maxAsk int
}

func (r *sizeRecorder) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	r.reads++
	r.maxAsk = max(r.maxAsk, len(p))
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}
