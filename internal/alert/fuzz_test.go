package alert

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseWire hardens the UDP ingestion path: arbitrary datagram bytes
// must never panic, and anything that parses must re-encode to something
// that parses back to the same alert.
func FuzzParseWire(f *testing.F) {
	a := testAlert()
	f.Add(AppendWire(nil, &a))
	f.Add([]byte(""))
	f.Add([]byte("||||||||||"))
	f.Add([]byte("0|0|ping|t|failure|R|R|0|1||"))
	f.Add([]byte("9999999999999999999|x|ping|t|failure|R|R|0.5|1|cs|raw"))
	f.Add([]byte("\x00\x01\x02|\xff|ping|t|failure|R|R|0|1||"))
	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := ParseWire(data)
		if err != nil {
			return
		}
		// Round-trip stability for accepted inputs.
		re := AppendWire(nil, &parsed)
		again, err := ParseWire(re)
		if err != nil {
			t.Fatalf("re-encode of accepted alert failed: %v\n in: %q\n re: %q", err, data, re)
		}
		if !alertEqual(&parsed, &again) {
			t.Fatalf("round trip unstable:\n a: %+v\n b: %+v", parsed, again)
		}
	})
}

// FuzzJSONDecode hardens the TCP ingestion path the same way.
func FuzzJSONDecode(f *testing.F) {
	f.Add([]byte(`{"source":"ping","type":"packet loss","class":"failure","time":"2024-07-02T11:00:00Z","end":"2024-07-02T11:00:00Z","location":"R|C|L|S|K|d"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"location":"a||b"}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		all, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := range all {
			_ = all[i].Validate() // must not panic
		}
	})
}

// FuzzWireBatchDecode hardens the columnar UDP ingestion path: arbitrary
// datagram bytes must never panic, a rejected frame must leave the batch
// exactly as it was (no partial rows, column lengths in lockstep), an
// accepted frame must decode identically to ParseWire, and no column may
// alias the caller's buffer — the buffer is reused for the next datagram.
func FuzzWireBatchDecode(f *testing.F) {
	a := testAlert()
	f.Add(AppendWire(nil, &a))
	f.Add([]byte(""))
	f.Add([]byte("||||||||||"))
	f.Add([]byte("0|0|ping|t|failure|R|R|0|1||"))
	f.Add([]byte("9999999999999999999|x|ping|t|failure|R|R|0.5|1|cs|raw"))
	f.Add([]byte("\x00\x01\x02|\xff|ping|t|failure|R|R|0|1||"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode from a buffer we can clobber afterwards, like the UDP
		// reader's reused read buffer.
		buf := append([]byte(nil), data...)
		var b Batch
		b.Append(&a) // pre-existing row that a rejected frame must not disturb
		err := b.AppendWire(buf)

		want, werr := ParseWire(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("batch/alert decoders disagree: batch err=%v, ParseWire err=%v, in=%q", err, werr, data)
		}
		if err != nil {
			if b.Len() != 1 {
				t.Fatalf("rejected frame left %d rows, want 1", b.Len())
			}
		} else if b.Len() != 2 {
			t.Fatalf("accepted frame left %d rows, want 2", b.Len())
		}
		// Column lengths must stay in lockstep either way.
		if !columnsInLockstep(&b) {
			t.Fatalf("ragged columns after decode of %q", data)
		}
		if err != nil {
			return
		}
		// Clobber the input buffer; the decoded row must be unaffected.
		for i := range buf {
			buf[i] = 0xAA
		}
		var got Alert
		b.AlertAt(1, &got)
		want.Count = max(want.Count, 0) // AlertAt reports the stored count verbatim
		if !alertEqual(&got, &want) {
			t.Fatalf("columnar decode diverges from ParseWire (or aliased the buffer):\n got:  %+v\n want: %+v\n in: %q", got, want, data)
		}
	})
}

// FuzzJSONBatchDecode holds the JSON Lines scanner to its contract (top
// of jsonscan.go) on arbitrary bytes, with json.Unmarshal into Alert as
// the oracle: both reject, or both accept with every field equal; a
// rejected line leaves the batch as it was; columns stay in lockstep; and
// no column aliases the (clobbered) input buffer.
func FuzzJSONBatchDecode(f *testing.F) {
	a := testAlert()
	a.Raw, a.CircuitSet = "<ping> loss & \"jitter\"\n", "cs-1"
	enc, err := json.Marshal(&a)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte(`{"source":"ping","type":"packet loss","class":"failure","time":"2024-02-29T11:00:00.5+08:00","end":"2024-07-31T11:00:00Z","location":"R|C|L|S|K|d","peer":"","value":-1.5e-3,"count":7,"id":9}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(` null `))
	f.Add([]byte(`{"location":"a||b"}`))
	f.Add([]byte(`{"x":{"y":[1,true,null,"\ud83d\ude00"]},"TYPE":"t","type":null,"count":1e3}`))
	f.Add([]byte(`{"raw":"\ud800 \/ \t","time":"2024-07-02T11:00:60Z"}`))
	f.Add([]byte("{\"raw\":\"\xff cut \xe6\x97\"}"))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc WireScratch
		checkJSONAgainstOracle(t, data, &sc)
	})
}
