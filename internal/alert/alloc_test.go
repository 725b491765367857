package alert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"skynet/internal/hierarchy"
)

// Allocation pins for batch-column reuse: once a Batch has grown its
// columns, the Reset-and-refill cycle the ingest dispatcher and the
// preprocessor's absorb path run every tick must stay off the heap.
func TestBatchReuseAllocFree(t *testing.T) {
	a := testAlert()
	var src, dst Batch
	fill := func() {
		src.Reset()
		for i := 0; i < 64; i++ {
			src.Append(&a)
		}
	}
	fill() // grow the columns once
	if avg := testing.AllocsPerRun(100, fill); avg != 0 {
		t.Errorf("warm Reset+Append cycle allocates %.1f times per run, want 0", avg)
	}
	dst.AppendRange(&src, 0, src.Len()) // grow the absorb side once
	if avg := testing.AllocsPerRun(100, func() {
		dst.Reset()
		dst.AppendRange(&src, 0, src.Len())
	}); avg != 0 {
		t.Errorf("warm Reset+AppendRange cycle allocates %.1f times per run, want 0", avg)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("absorb lost rows: %d != %d", dst.Len(), src.Len())
	}
}

// wireTestLines encodes a handful of alerts that exercise every string
// field of the wire format (type, location, peer, circuitset, raw).
func wireTestLines(t *testing.T) [][]byte {
	t.Helper()
	peer, err := hierarchy.New("RG01", "CT02", "LS03")
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for i := 0; i < 4; i++ {
		a := testAlert()
		a.Type = fmt.Sprintf("%s-%d", a.Type, i)
		a.Peer = peer
		a.Value = 0.15 * float64(i+1)
		a.CircuitSet = fmt.Sprintf("cs-%d", i)
		a.Raw = fmt.Sprintf("ping loss RG01/CT01 sev=%d", i)
		lines = append(lines, AppendWire(nil, &a))
	}
	return lines
}

// Allocation pins for the scratch-backed wire decoders: once a
// WireScratch has seen a line's string fields, re-decoding lines built
// from the same vocabulary must stay off the heap entirely. This is the
// property that keeps the UDP ingest loops allocation-free through a
// flood, where the same few dozen types and locations recur on every
// datagram.
func TestWireScratchDecodeAllocFree(t *testing.T) {
	lines := wireTestLines(t)
	var sc WireScratch
	for _, l := range lines { // warm the intern caches
		if _, err := sc.ParseWire(l); err != nil {
			t.Fatal(err)
		}
	}
	var sink Alert
	if avg := testing.AllocsPerRun(100, func() {
		for _, l := range lines {
			a, err := sc.ParseWire(l)
			if err != nil {
				t.Fatal(err)
			}
			sink = a
		}
	}); avg != 0 {
		t.Errorf("warm scratch ParseWire allocates %.1f times per run, want 0", avg)
	}
	_ = sink

	var b Batch
	fill := func() {
		b.Reset()
		for _, l := range lines {
			if err := b.AppendWireScratch(l, &sc); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill() // grow the columns once
	if avg := testing.AllocsPerRun(100, fill); avg != 0 {
		t.Errorf("warm scratch AppendWireScratch cycle allocates %.1f times per run, want 0", avg)
	}
}

// TestWireScratchMatchesPlainDecode pins that the scratch path is a
// pure optimization: both decoders produce identical rows.
func TestWireScratchMatchesPlainDecode(t *testing.T) {
	var sc WireScratch
	for _, l := range wireTestLines(t) {
		want, err := ParseWire(l)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.ParseWire(l)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("scratch decode mismatch for %q:\n got %+v\nwant %+v", l, got, want)
		}
		var plain, scratched Batch
		if err := plain.AppendWire(l); err != nil {
			t.Fatal(err)
		}
		if err := scratched.AppendWireScratch(l, &sc); err != nil {
			t.Fatal(err)
		}
		var pa, sa Alert
		plain.AlertAt(0, &pa)
		scratched.AlertAt(0, &sa)
		if !reflect.DeepEqual(pa, sa) {
			t.Errorf("scratch batch decode mismatch for %q:\n got %+v\nwant %+v", l, sa, pa)
		}
	}
}

// TestWireScratchCapResets feeds more distinct values than the cache
// cap and checks the scratch bounds itself (hostile high-cardinality
// input must not grow the cache without limit) while still decoding
// correctly.
func TestWireScratchCapResets(t *testing.T) {
	var sc WireScratch
	a := testAlert()
	var line []byte
	for i := 0; i < wireScratchMaxEntries+8; i++ {
		a.Type = fmt.Sprintf("type-%d", i)
		line = AppendWire(line[:0], &a)
		got, err := sc.ParseWire(line)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != a.Type {
			t.Fatalf("decode %d: type %q, want %q", i, got.Type, a.Type)
		}
		if len(sc.strs) > wireScratchMaxEntries {
			t.Fatalf("cache grew to %d entries, cap %d", len(sc.strs), wireScratchMaxEntries)
		}
	}
	if len(sc.strs) >= wireScratchMaxEntries {
		t.Errorf("cache did not reset at cap: %d entries", len(sc.strs))
	}
}

// Allocation pin for the JSON Lines scanner, the same shape as the
// wire-scratch pin above: once a WireScratch has seen a line's strings,
// re-decoding lines built from the same vocabulary into a reused batch
// stays off the heap — escaped strings (json.Marshal writes '<' and '&'
// as \u escapes) and a numeric zone offset included. This is what keeps a
// TCP connection allocation-free through a flood.
func TestJSONScratchDecodeAllocFree(t *testing.T) {
	var lines [][]byte
	for _, wl := range wireTestLines(t) {
		a, err := ParseWire(wl)
		if err != nil {
			t.Fatal(err)
		}
		a.Raw += " <b>&</b> \"quoted\"\n"
		a.Time = a.Time.In(time.FixedZone("", 8*3600))
		l, err := json.Marshal(&a)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, l)
	}
	var sc WireScratch
	var b Batch
	fill := func() {
		b.Reset()
		for _, l := range lines {
			if err := b.AppendJSON(l, &sc); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill() // warm the intern caches, grow the columns once
	if avg := testing.AllocsPerRun(100, fill); avg != 0 {
		t.Errorf("warm AppendJSON cycle allocates %.1f times per run, want 0 (%d rows)", avg, len(lines))
	}
	d := NewDecoder(bytes.NewReader(bytes.Repeat(append(lines[0], '\n'), 300)))
	var a Alert
	if err := d.Decode(&a); err != nil { // warm
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := d.Decode(&a); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm Decoder.Decode allocates %.1f times per alert, want 0", avg)
	}
}
