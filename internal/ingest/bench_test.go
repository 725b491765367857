package ingest

import (
	"io"
	"log/slog"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"skynet/internal/alert"
)

// BenchmarkUDPIngest is one datagram through the whole UDP front door
// over loopback: the sender's write, the reader's batch socket read and
// wire decode, the row-bounded queue, the dispatcher and a counting
// handler. The sender stays at most a window ahead of the handler — well
// inside the kernel's default socket buffer — so nothing is dropped and
// ns/op is the inverse of sustained loopback datagrams per second.
func BenchmarkUDPIngest(b *testing.B) {
	const window = 128
	var rows atomic.Int64
	s, err := ListenBatch(Config{
		UDPAddr:    "127.0.0.1:0",
		QueueDepth: 1 << 16,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}, func(batch *alert.Batch) { rows.Add(int64(batch.Len())) })
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	conn := dialUDP(b, s)
	payload := wireAlert(1)
	// awaitRows spins until the handler has seen n rows; a datagram that
	// never arrives must fail the benchmark, not hang it.
	awaitRows := func(n int64) {
		for stalled := time.Now(); rows.Load() < n; runtime.Gosched() {
			if time.Since(stalled) > 10*time.Second {
				b.Fatalf("handler saw %d of %d datagrams: %+v", rows.Load(), n, s.Stats())
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		awaitRows(int64(i) - window + 1)
		if _, err := conn.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
	awaitRows(int64(b.N))
}
