package alert

import (
	"bytes"
	"testing"
)

// BenchmarkJSONDecode is the TCP ingest decode: one JSON Lines alert, as
// the Encoder writes it, scanned into a reused batch through a warm
// WireScratch. Decode only — the daemon never encodes.
func BenchmarkJSONDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, []Alert{testAlert()}); err != nil {
		b.Fatal(err)
	}
	line := bytes.TrimSpace(buf.Bytes())
	var sc WireScratch
	var batch Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batch.Len() == 512 {
			batch.Reset()
		}
		if err := batch.AppendJSON(line, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecode is the UDP ingest decode of one wire-format alert:
// "plain" through ParseWire, "scratch" through a warm WireScratch — the
// path the UDP reader runs, where every string field is a cache hit.
func BenchmarkWireDecode(b *testing.B) {
	a := testAlert()
	a.Raw = "Packet loss 25.0% to peer"
	line := AppendWire(nil, &a)
	var sc WireScratch
	for _, bc := range []struct {
		name  string
		parse func([]byte) (Alert, error)
	}{
		{"plain", ParseWire},
		{"scratch", sc.ParseWire},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.parse(line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchAbsorb measures the columnar hand-off cycle: a reused
// batch filled row by row (the ingest side), then bulk-absorbed into a
// second reused batch with AppendRange (the preprocess side).
// TestBatchReuseAllocFree pins the cycle at zero allocations.
func BenchmarkBatchAbsorb(b *testing.B) {
	a := testAlert()
	var src, dst Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset()
		for j := 0; j < 2000; j++ {
			src.Append(&a)
		}
		dst.Reset()
		dst.AppendRange(&src, 0, src.Len())
		if dst.Len() != src.Len() {
			b.Fatal("absorb lost rows")
		}
	}
}
