package ingest

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skynet/internal/alert"
)

// jsonLines encodes n copies of testAlert as JSON Lines.
func jsonLines(t *testing.T, n int) []byte {
	t.Helper()
	alerts := make([]alert.Alert, n)
	for i := range alerts {
		alerts[i] = testAlert(uint64(i + 1))
	}
	var buf bytes.Buffer
	if err := alert.WriteAll(&buf, alerts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTCPBatchOwnership pins who owns a connection's batch. The line
// framer flushes the batch from inside its Read, so a reader that fetched
// the batch before asking for the next line would append that line's row
// to a batch already queued for — or being reset by — the dispatcher.
// Senders write in chunks that end mid-line, which makes nearly every
// Read come between two rows of one stream. The handler retains nothing:
// it checks each row is whole and counts them; the total must equal both
// what was sent and AlertsAccepted. Run under -race, where the bug is a
// reported race before it is a miscount.
func TestTCPBatchOwnership(t *testing.T) {
	const senders, perSender = 4, 3000
	var rows, torn atomic.Int64
	cfg := DefaultConfig()
	cfg.UDPAddr = ""
	cfg.QueueDepth = senders * perSender // nothing is shed
	s, err := ListenBatch(cfg, func(b *alert.Batch) {
		for i := 0; i < b.Len(); i++ {
			if b.Type[i] != alert.TypePacketLoss || b.Count[i] != 1 || b.Location[i].IsRoot() || !b.Time[i].Equal(epoch) {
				torn.Add(1)
			}
		}
		rows.Add(int64(b.Len()))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stream := jsonLines(t, perSender)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(chunk int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.TCPAddr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			for lo := 0; lo < len(stream); lo += chunk {
				if _, err := conn.Write(stream[lo:min(lo+chunk, len(stream))]); err != nil {
					t.Error(err)
					return
				}
			}
		}(997 + 101*w) // no multiple of the line length
	}
	wg.Wait()
	if !WaitForAccepted(s, senders*perSender, 10*time.Second) {
		t.Fatalf("accepted %d of %d rows: %+v", s.Stats().AlertsAccepted, senders*perSender, s.Stats())
	}
	s.Close()
	st := s.Stats()
	if got := rows.Load(); got != senders*perSender || int64(st.AlertsAccepted) != got {
		t.Errorf("handler saw %d rows, accepted %d, sent %d", got, st.AlertsAccepted, senders*perSender)
	}
	if st.AlertsRejected != 0 {
		t.Errorf("rows rejected: %+v", st)
	}
	if n := torn.Load(); n != 0 {
		t.Errorf("%d rows reached the handler incomplete", n)
	}
}

// TestTCPBurstArrivesInFewBatches writes just under 64 KB of alerts with
// one Write. The reader asks its socket for up to a whole MaxLineBytes
// buffer per read and hands off what it has decoded each time it goes
// back for more, so the burst reaches the handler in a few batches — at
// most a handful when loopback splits the write. A reader that reads
// 4 KB at a time cannot do it in fewer than 16.
func TestTCPBurstArrivesInFewBatches(t *testing.T) {
	one := len(jsonLines(t, 1))
	n := (alert.MaxLineBytes - 1024) / one
	if n > maxIngestBatch {
		t.Fatalf("burst of %d rows would be split by the %d-row batch cap", n, maxIngestBatch)
	}
	burst := jsonLines(t, n)
	cfg := DefaultConfig()
	cfg.UDPAddr = ""
	s, col := startBatchServer(t, cfg)
	conn, err := net.Dial("tcp", s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	if got := col.waitHandled(n, 5*time.Second); got != n {
		t.Fatalf("handled %d of %d rows", got, n)
	}
	col.mu.Lock()
	batches := col.batches
	col.mu.Unlock()
	if batches > 8 {
		t.Errorf("%d-byte burst (%d rows) reached the handler in %d batches, want a handful", len(burst), n, batches)
	}
}

// TestTCPReadTimeoutCountsIdleTime pins what ReadTimeout measures now that
// the deadline is armed only when a read would block: time with nothing to
// read. A connection that trickles (parks and is re-armed between writes)
// and one that blasts for several timeouts on end (never parks, so the
// deadline armed before the blast runs out under it) both stay open; a
// connection that goes quiet is closed after ReadTimeout.
func TestTCPReadTimeoutCountsIdleTime(t *testing.T) {
	const timeout = 100 * time.Millisecond
	cfg := DefaultConfig()
	cfg.UDPAddr = ""
	cfg.ReadTimeout = timeout
	s, err := ListenBatch(cfg, func(*alert.Batch) {})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	line := jsonLines(t, 1)
	for end := time.Now().Add(3 * timeout); time.Now().Before(end); time.Sleep(timeout / 10) {
		if _, err := conn.Write(line); err != nil {
			t.Fatalf("trickling connection closed: %v", err)
		}
	}
	blast := jsonLines(t, 200)
	for end := time.Now().Add(3 * timeout); time.Now().Before(end); {
		if _, err := conn.Write(blast); err != nil {
			t.Fatalf("busy connection closed: %v", err)
		}
	}
	if _, err := conn.Write(line); err != nil {
		t.Fatalf("busy connection closed: %v", err)
	}
	if st := s.Stats(); st.TCPDecodeErrors != 0 {
		t.Fatalf("connection dropped while it had input: %+v", st)
	}

	quiet := time.Now()
	conn.SetReadDeadline(quiet.Add(10 * timeout))
	if _, err := conn.Read(make([]byte, 1)); err == nil || time.Since(quiet) >= 10*timeout {
		t.Fatalf("idle connection still open after %v (read: %v)", time.Since(quiet), err)
	}
	if idle := time.Since(quiet); idle < timeout/2 {
		t.Errorf("connection closed %v after its last input, ReadTimeout is %v", idle, timeout)
	}
}
