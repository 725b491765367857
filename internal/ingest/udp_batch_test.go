package ingest

import (
	"context"
	"log/slog"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skynet/internal/alert"
)

// wireAlert is testAlert in the UDP wire format, tagged through Value.
func wireAlert(tag int) []byte {
	a := testAlert(1)
	a.Value = float64(tag)
	return alert.AppendWire(nil, &a)
}

func dialUDP(t testing.TB, s *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("udp", s.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// stallUDPReader parks the UDP reader goroutine without stopping the
// socket: it takes s.mu and sends one garbage datagram, whose reject count
// the reader cannot book until release. Everything sent in between waits
// in the kernel's buffer, so the reader finds it all at once — on Linux in
// batch reads of up to 32. The garbage datagram adds one UDPParseErrors.
func stallUDPReader(t *testing.T, s *Server, conn net.Conn) (release func()) {
	t.Helper()
	s.mu.Lock()
	if _, err := conn.Write([]byte("stall")); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	return s.mu.Unlock
}

// waitStats polls Stats until ok accepts a snapshot or the deadline passes.
func waitStats(s *Server, deadline time.Duration, ok func(Stats) bool) Stats {
	end := time.Now().Add(deadline)
	for {
		st := s.Stats()
		if ok(st) || time.Now().After(end) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUDPBurstArrivesInFewBatches writes 200 datagrams back to back —
// fewer than the kernel's default socket buffer holds — while the reader
// is held up, as a tick's workers or the collector hold it up in the
// daemon. When it gets to its socket it takes everything that is there,
// 32 datagrams to a read, and hands its batch over only when the socket is
// empty: the burst reaches the handler in send order and in one batch, not
// one per read. A lone datagram after that reaches the handler although
// nothing follows it: the flush before parking delivers it, not a timer.
func TestUDPBurstArrivesInFewBatches(t *testing.T) {
	const n = 200
	cfg := DefaultConfig()
	cfg.TCPAddr = ""
	s, col := startBatchServer(t, cfg)
	conn := dialUDP(t, s)
	release := stallUDPReader(t, s, conn)
	for i := 1; i <= n; i++ {
		if _, err := conn.Write(wireAlert(i)); err != nil {
			release()
			t.Fatal(err)
		}
	}
	release()
	if got := col.waitHandled(n, 5*time.Second); got != n {
		t.Fatalf("handled %d of %d datagrams: %+v", got, n, s.Stats())
	}
	col.mu.Lock()
	batches, got := col.batches, append([]alert.Alert(nil), col.got...)
	col.mu.Unlock()
	for i, a := range got {
		if int(a.Value) != i+1 {
			t.Fatalf("row %d carries tag %v: not in send order", i, a.Value)
		}
	}
	// Elsewhere a read is one datagram and may block, so each is flushed.
	if runtime.GOOS == "linux" && batches > 2 {
		t.Errorf("%d datagrams waiting in the socket reached the handler in %d batches, want 1", n, batches)
	}

	if _, err := conn.Write(wireAlert(n + 1)); err != nil {
		t.Fatal(err)
	}
	if got := col.waitHandled(n+1, 2*time.Second); got != n+1 {
		t.Fatalf("a lone datagram did not reach the handler: handled %d, %+v", got, s.Stats())
	}
}

// TestUDPBatchOwnership pins who owns the UDP reader's batch. The socket
// primitive flushes the batch from inside readBatch, when the socket runs
// empty, so a loop that fetched its batch before the read would append the
// next datagram's row to a batch already queued for — or being reset by —
// the dispatcher. Senders run closed-loop, at most a small window ahead of
// the handler, so the socket runs empty between nearly every two batch
// reads and no datagram is lost to a full buffer. The handler retains
// nothing: it checks each row is whole and counts them; the total must
// equal both what was sent and AlertsAccepted. Run under -race, where the
// bug is a reported race before it is a miscount.
func TestUDPBatchOwnership(t *testing.T) {
	const senders, perSender, window = 4, 1500, 64
	var rows, torn atomic.Int64
	cfg := DefaultConfig()
	cfg.TCPAddr = ""
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
	payload := wireAlert(1)
	var sent atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("udp", s.UDPAddr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			end := time.Now().Add(20 * time.Second)
			for i := 0; i < perSender; {
				if sent.Load()-rows.Load() >= window {
					if time.Now().After(end) {
						t.Error("handler stopped making progress")
						return
					}
					runtime.Gosched()
					continue
				}
				sent.Add(1)
				if _, err := conn.Write(payload); err != nil {
					t.Error(err)
					return
				}
				i++
			}
		}()
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

// TestUDPReaderAllocFree runs the whole UDP path — socket read, decode,
// flush, queue, dispatcher, handler, pool — in steady state and counts
// every allocation in the process while it does: none per datagram. (The
// parent's ReadFrom allocated a net.Addr for each.)
func TestUDPReaderAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops batches at random under the race detector")
	}
	const perRun = 64
	var rows atomic.Int64
	cfg := DefaultConfig()
	cfg.TCPAddr = ""
	s, err := ListenBatch(cfg, func(b *alert.Batch) { rows.Add(int64(b.Len())) })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn := dialUDP(t, s)
	payload := wireAlert(1)
	var want int64
	run := func() {
		for i := 0; i < perRun; i++ {
			if _, err := conn.Write(payload); err != nil {
				t.Fatal(err)
			}
		}
		want += perRun
		for end := time.Now().Add(5 * time.Second); rows.Load() < want; {
			if time.Now().After(end) {
				t.Fatalf("handled %d of %d datagrams: %+v", rows.Load(), want, s.Stats())
			}
			time.Sleep(20 * time.Microsecond) // AllocsPerRun runs on one P: let it poll the network
		}
	}
	for i := 0; i < 20; i++ { // fill the scratch caches, the pool and the batch columns
		run()
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("%v allocations per %d datagrams in steady state, want 0", avg, perRun)
	}
}

// udpOutcome is what a sequence of datagrams did to a server.
type udpOutcome struct {
	rows            []alert.Alert
	unparsed, inval int
}

// deliverUDP sends the datagrams to a fresh server — together, held back
// until all are in the kernel's buffer so that the reader meets them in
// one batch read (where the platform has one), or one at a time, each
// settled before the next — and returns what came of them.
func deliverUDP(t *testing.T, datagrams [][]byte, together bool) udpOutcome {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TCPAddr = ""
	s, col := startBatchServer(t, cfg)
	conn := dialUDP(t, s)
	settled := 0
	settle := func(n int) {
		settled += n
		st := waitStats(s, 5*time.Second, func(st Stats) bool { return st.AlertsAccepted+st.AlertsRejected >= settled })
		if st.AlertsAccepted+st.AlertsRejected != settled {
			t.Fatalf("settled %d of %d datagrams: %+v", st.AlertsAccepted+st.AlertsRejected, settled, st)
		}
	}
	if together {
		release := stallUDPReader(t, s, conn)
		for _, d := range datagrams {
			if _, err := conn.Write(d); err != nil {
				release()
				t.Fatal(err)
			}
		}
		release()
		settle(1 + len(datagrams))
	} else {
		for _, d := range datagrams {
			if _, err := conn.Write(d); err != nil {
				t.Fatal(err)
			}
			settle(1)
		}
	}
	s.Close()
	st := s.Stats()
	out := udpOutcome{rows: col.got, unparsed: st.UDPParseErrors, inval: st.UDPInvalid}
	if together {
		out.unparsed-- // the stall datagram
	}
	return out
}

// TestUDPMixedBatchRead puts the awkward datagrams inside one batch read
// between ordinary ones — the largest a UDP socket can carry (65 507
// bytes), an empty one, a garbage one, one that parses but fails
// validation, one with a trailing newline — and requires each decoded or
// rejected exactly as when it is sent alone, neighbours undisturbed.
func TestUDPMixedBatchRead(t *testing.T) {
	const maxDatagram = 65507 // 65 535 less the IP and UDP headers
	big := testAlert(1)
	big.Value = 2
	big.Raw = strings.Repeat("x", maxDatagram-len(alert.AppendWire(nil, &big)))
	bigWire := alert.AppendWire(nil, &big)
	if len(bigWire) != maxDatagram {
		t.Fatalf("largest datagram is %d bytes, want %d", len(bigWire), maxDatagram)
	}
	negative := testAlert(1)
	negative.Count = -1 // parses, fails validation
	datagrams := [][]byte{
		wireAlert(1),
		bigWire,
		{},
		wireAlert(3),
		[]byte("not|a|valid|alert"),
		alert.AppendWire(nil, &negative),
		append(wireAlert(4), '\r', '\n'),
		wireAlert(5),
	}
	alone := deliverUDP(t, datagrams, false)
	if len(alone.rows) != 5 || alone.unparsed != 2 || alone.inval != 1 {
		t.Fatalf("sent alone: %d rows, %d unparsed, %d invalid; want 5, 2, 1", len(alone.rows), alone.unparsed, alone.inval)
	}
	if alone.rows[1].Raw != big.Raw {
		t.Errorf("the 65 507-byte datagram lost bytes: Raw is %d long, want %d", len(alone.rows[1].Raw), len(big.Raw))
	}
	mixed := deliverUDP(t, datagrams, true)
	if mixed.unparsed != alone.unparsed || mixed.inval != alone.inval || len(mixed.rows) != len(alone.rows) {
		t.Fatalf("in one batch read: %d rows, %d unparsed, %d invalid; alone: %d, %d, %d",
			len(mixed.rows), mixed.unparsed, mixed.inval, len(alone.rows), alone.unparsed, alone.inval)
	}
	for i := range alone.rows {
		a, m := alone.rows[i], mixed.rows[i]
		if !a.Time.Equal(m.Time) || !a.End.Equal(m.End) {
			t.Errorf("row %d: times differ: alone %v–%v, batched %v–%v", i, a.Time, a.End, m.Time, m.End)
		}
		a.Time, a.End, m.Time, m.End = time.Time{}, time.Time{}, time.Time{}, time.Time{}
		if a != m {
			t.Errorf("row %d differs:\nalone   %+v\nbatched %+v", i, a, m)
		}
	}
}

// garbageBatchTakesOneLock is TestUDPGarbageFloodStaysUp's case at volume:
// 10 000 garbage datagrams, delivered to the reader a socket buffer's
// worth at a time. However many datagrams a batch read returns, their
// reject counts are booked under s.mu once, so on Linux — 32 datagrams to
// a read — the flood costs a few hundred trips through the lock, not ten
// thousand. The server then still takes a valid alert.
func garbageBatchTakesOneLock(t *testing.T) {
	const rounds, perRound = 50, 200 // perRound: fewer than the default buffer holds
	cfg := DefaultConfig()
	cfg.TCPAddr = ""
	s, col := startBatchServer(t, cfg)
	conn := dialUDP(t, s)
	junk := []byte("0|0|ping|t|bogusclass|R|R|0|1||")
	for r := 1; r <= rounds; r++ {
		release := stallUDPReader(t, s, conn)
		for i := 1; i < perRound; i++ {
			if _, err := conn.Write(junk); err != nil {
				release()
				t.Fatal(err)
			}
		}
		release()
		if st := waitStats(s, 5*time.Second, func(st Stats) bool { return st.AlertsRejected >= r*perRound }); st.AlertsRejected != r*perRound {
			t.Fatalf("round %d: rejected %d of %d garbage datagrams: %+v", r, st.AlertsRejected, r*perRound, st)
		}
	}
	s.mu.Lock()
	calls := s.rejectCalls
	s.mu.Unlock()
	t.Logf("%d garbage datagrams booked in %d trips through s.mu", rounds*perRound, calls)
	// Per round: the stall datagram's read, then 199 datagrams in batch
	// reads of 32 (the first may have been cut short by the stall).
	if limit := rounds * (2 + perRound/32 + 1); runtime.GOOS == "linux" && calls > limit {
		t.Errorf("%d garbage datagrams took s.mu %d times for their reject counts, want at most %d (one per batch read)",
			rounds*perRound, calls, limit)
	}
	if _, err := conn.Write(wireAlert(1)); err != nil {
		t.Fatal(err)
	}
	if got := col.waitHandled(1, 2*time.Second); got != 1 {
		t.Fatalf("server stopped accepting after the garbage flood: %+v", s.Stats())
	}
}

// logCounter is a slog.Handler that counts Warn-and-above records and how
// often a Debug record was offered (it takes none).
type logCounter struct {
	warns, debugs atomic.Int64
	mu            sync.Mutex
	last          string
}

func (h *logCounter) Enabled(_ context.Context, l slog.Level) bool {
	if l < slog.LevelWarn {
		if l == slog.LevelDebug {
			h.debugs.Add(1)
		}
		return false
	}
	return true
}

func (h *logCounter) Handle(_ context.Context, r slog.Record) error {
	h.warns.Add(1)
	h.mu.Lock()
	h.last = r.Message
	h.mu.Unlock()
	return nil
}

func (h *logCounter) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *logCounter) WithGroup(string) slog.Handler      { return h }

// TestUDPPersistentReadErrorBacksOff makes every read of the UDP socket
// fail with an error that is not "closed" (a read deadline in the past)
// and leaves it failing for a while: the reader logs the error once and
// retries at a growing interval — it neither spins nor fills the log —
// then carries on when reads work again, and Close does not wait out a
// backoff.
func TestUDPPersistentReadErrorBacksOff(t *testing.T) {
	logs := &logCounter{}
	cfg := DefaultConfig()
	cfg.TCPAddr = ""
	cfg.Logger = slog.New(logs)
	s, col := startBatchServer(t, cfg)
	conn := dialUDP(t, s)
	if err := s.udpPc.SetReadDeadline(time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	// Waits in the socket until reads work again.
	if _, err := conn.Write(wireAlert(1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	// 1+2+4+…+256 ms is half a second: at most nine retries fit in 300 ms.
	if w, d := logs.warns.Load(), logs.debugs.Load(); w != 1 || d < 2 || d > 9 {
		logs.mu.Lock()
		t.Errorf("failing socket: %d warnings (last %q) and %d retries in 300 ms, want 1 and 2–9", w, logs.last, d)
		logs.mu.Unlock()
	}
	if err := s.udpPc.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if got := col.waitHandled(1, 2*time.Second); got != 1 {
		t.Fatalf("reader did not resume after the error cleared: %+v", s.Stats())
	}

	if err := s.udpPc.SetReadDeadline(time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(700 * time.Millisecond) // into the 512 ms pause, 300 ms of it to go
	start := time.Now()
	s.Close()
	if took := time.Since(start); took > 150*time.Millisecond {
		t.Errorf("Close took %v with the reader in a backoff pause", took)
	}
	if w := logs.warns.Load(); w != 1 {
		t.Errorf("%d warnings for one distinct error, want 1", w)
	}
}
