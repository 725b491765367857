package ingest

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/hierarchy"
)

var epoch = time.Date(2024, 7, 2, 11, 0, 0, 0, time.UTC)

func testAlert(id uint64) alert.Alert {
	return alert.Alert{
		ID: id, Source: alert.SourcePing, Type: alert.TypePacketLoss,
		Class: alert.ClassFailure, Time: epoch, End: epoch,
		Location: hierarchy.MustNew("RG01", "CT01", "LS01", "ST01", "CL01", "dev"),
		Value:    0.3, Count: 1,
	}
}

// collector gathers handled alerts thread-safely.
type collector struct {
	mu  sync.Mutex
	got []alert.Alert
}

func (c *collector) handle(a alert.Alert) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, a)
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

// waitHandled blocks until n alerts have reached the handler or the
// deadline passes. A reader's flush counts rows as accepted before the
// dispatch goroutine delivers them, so accepted may run ahead of handled.
func (c *collector) waitHandled(n int, deadline time.Duration) int {
	end := time.Now().Add(deadline)
	for c.len() < n && time.Now().Before(end) {
		time.Sleep(2 * time.Millisecond)
	}
	return c.len()
}

func startServer(t *testing.T, cfg Config) (*Server, *collector) {
	t.Helper()
	col := &collector{}
	s, err := Listen(cfg, col.handle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, col
}

func TestTCPRoundTrip(t *testing.T) {
	s, col := startServer(t, DefaultConfig())
	c, err := DialTCP(context.Background(), s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 20; i++ {
		a := testAlert(uint64(i))
		if err := c.Send(&a); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if !WaitForAccepted(s, 20, 2*time.Second) {
		t.Fatalf("accepted %d of 20", s.Stats().AlertsAccepted)
	}
	if got := col.waitHandled(20, 2*time.Second); got != 20 {
		t.Errorf("handled %d of 20", got)
	}
	if s.Stats().TCPConnections != 1 {
		t.Errorf("connections = %d", s.Stats().TCPConnections)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	s, col := startServer(t, DefaultConfig())
	c, err := DialUDP(s.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 10; i++ {
		a := testAlert(uint64(i))
		if err := c.Send(&a); err != nil {
			t.Fatal(err)
		}
	}
	if !WaitForAccepted(s, 10, 2*time.Second) {
		t.Fatalf("accepted %d of 10 (UDP loopback should not drop)", s.Stats().AlertsAccepted)
	}
	c.mustMatch(t, col)
}

func (c *UDPClient) mustMatch(t *testing.T, col *collector) {
	t.Helper()
	col.mu.Lock()
	defer col.mu.Unlock()
	for _, a := range col.got {
		if a.Source != alert.SourcePing || a.Type != alert.TypePacketLoss {
			t.Errorf("mangled alert: %+v", a)
		}
	}
}

func TestUDPRejectsGarbage(t *testing.T) {
	s, col := startServer(t, DefaultConfig())
	c, err := DialUDP(s.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.conn.Write([]byte("not|a|valid|alert")); err != nil {
		t.Fatal(err)
	}
	good := testAlert(1)
	if err := c.Send(&good); err != nil {
		t.Fatal(err)
	}
	if !WaitForAccepted(s, 1, 2*time.Second) {
		t.Fatal("good alert not accepted")
	}
	st := s.Stats()
	if st.AlertsRejected != 1 {
		t.Errorf("rejected = %d, want 1", st.AlertsRejected)
	}
	if col.len() != 1 {
		t.Errorf("handled = %d, want 1", col.len())
	}
}

func TestTCPRejectsInvalidAlert(t *testing.T) {
	s, _ := startServer(t, DefaultConfig())
	c, err := DialTCP(context.Background(), s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bad := testAlert(1)
	bad.Location = hierarchy.Root() // invalid: root location
	if err := c.Send(&bad); err != nil {
		t.Fatal(err)
	}
	good := testAlert(2)
	if err := c.Send(&good); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if !WaitForAccepted(s, 1, 2*time.Second) {
		t.Fatal("good alert not accepted")
	}
	if st := s.Stats(); st.AlertsRejected != 1 {
		t.Errorf("rejected = %d, want 1", st.AlertsRejected)
	}
}

func TestConnectionLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConns = 1
	s, _ := startServer(t, cfg)
	c1, err := DialTCP(context.Background(), s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	a := testAlert(1)
	if err := c1.Send(&a); err != nil {
		t.Fatal(err)
	}
	if err := c1.Flush(); err != nil {
		t.Fatal(err)
	}
	if !WaitForAccepted(s, 1, 2*time.Second) {
		t.Fatal("first connection not serving")
	}
	// The second connection is accepted then closed by the server; reads
	// on it will hit EOF quickly.
	c2, err := DialTCP(context.Background(), s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	deadline := time.Now().Add(2 * time.Second)
	closed := false
	buf := make([]byte, 1)
	c2.conn.SetReadDeadline(deadline)
	if _, err := c2.conn.Read(buf); err != nil {
		closed = true
	}
	if !closed {
		t.Error("second connection not closed by the limiter")
	}
}

func TestListenErrors(t *testing.T) {
	if _, err := Listen(DefaultConfig(), nil); err == nil {
		t.Error("nil handler accepted")
	}
	bad := DefaultConfig()
	bad.TCPAddr = "256.0.0.1:99999"
	if _, err := Listen(bad, func(alert.Alert) {}); err == nil {
		t.Error("bad TCP address accepted")
	}
	bad = DefaultConfig()
	bad.UDPAddr = "256.0.0.1:99999"
	if _, err := Listen(bad, func(alert.Alert) {}); err == nil {
		t.Error("bad UDP address accepted")
	}
}

func TestDisabledListeners(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UDPAddr = ""
	s, _ := startServer(t, cfg)
	if s.UDPAddr() != nil {
		t.Error("UDP should be disabled")
	}
	if s.TCPAddr() == nil {
		t.Error("TCP should be enabled")
	}
	cfg = DefaultConfig()
	cfg.TCPAddr = ""
	s2, _ := startServer(t, cfg)
	if s2.TCPAddr() != nil {
		t.Error("TCP should be disabled")
	}
}

func TestCloseIdempotentAndDrains(t *testing.T) {
	s, col := startServer(t, DefaultConfig())
	c, err := DialTCP(context.Background(), s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := testAlert(1)
	c.Send(&a)
	c.Close()
	WaitForAccepted(s, 1, 2*time.Second)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second close errored:", err)
	}
	if col.len() != 1 {
		t.Errorf("handled %d after close", col.len())
	}
}

func TestConcurrentSenders(t *testing.T) {
	s, col := startServer(t, DefaultConfig())
	const senders, per = 8, 25
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialTCP(context.Background(), s.TCPAddr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < per; j++ {
				a := testAlert(uint64(i*per + j))
				if err := c.Send(&a); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if !WaitForAccepted(s, senders*per, 3*time.Second) {
		t.Fatalf("accepted %d of %d", s.Stats().AlertsAccepted, senders*per)
	}
	if got := col.waitHandled(senders*per, 3*time.Second); got != senders*per {
		t.Errorf("handled %d of %d", got, senders*per)
	}
}

func TestUDPGarbageFloodStaysUp(t *testing.T) {
	// Failure injection: a hostile or broken peer firehoses garbage
	// datagrams; the server must stay up, count rejections, and keep
	// serving valid traffic afterwards.
	s, col := startServer(t, DefaultConfig())
	c, err := DialUDP(s.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	junk := [][]byte{
		[]byte(""),
		[]byte("\x00\x01\x02\x03"),
		[]byte("||||||||||"),
		[]byte(strings.Repeat("A", 1400)),
		[]byte("0|0|ping|t|bogusclass|R|R|0|1||"),          // parses fields but bad class
		[]byte("9999999999999999999999|x|y|z|w|v|u|t|s|r"), // wrong field count
	}
	for i := 0; i < 50; i++ {
		if _, err := c.conn.Write(junk[i%len(junk)]); err != nil {
			t.Fatal(err)
		}
	}
	good := testAlert(1)
	if err := c.Send(&good); err != nil {
		t.Fatal(err)
	}
	if !WaitForAccepted(s, 1, 2*time.Second) {
		t.Fatal("server stopped accepting after garbage flood")
	}
	st := s.Stats()
	if st.AlertsRejected == 0 {
		t.Error("garbage not counted as rejected")
	}
	if col.len() != 1 {
		t.Errorf("handled %d, want only the valid alert", col.len())
	}
	t.Run("one lock per batch read", garbageBatchTakesOneLock)
}

func TestTCPPartialJSONThenDisconnect(t *testing.T) {
	// A relay dies mid-line: the decoder errors, the connection closes,
	// and the server remains healthy for the next client.
	s, _ := startServer(t, DefaultConfig())
	c1, err := DialTCP(context.Background(), s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.conn.Write([]byte(`{"source":"ping","type":"packet`)); err != nil {
		t.Fatal(err)
	}
	c1.conn.Close()
	time.Sleep(50 * time.Millisecond)
	c2, err := DialTCP(context.Background(), s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	a := testAlert(2)
	if err := c2.Send(&a); err != nil {
		t.Fatal(err)
	}
	if err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !WaitForAccepted(s, 1, 2*time.Second) {
		t.Fatal("server unhealthy after partial-JSON client")
	}
}

// dialProto connects to s over "tcp" or "udp" and returns a function that
// delivers one alert per call; TCP flushes per alert, so on either
// protocol every alert is a socket read of its own.
func dialProto(t *testing.T, s *Server, proto string) func(*alert.Alert) error {
	t.Helper()
	if proto == "udp" {
		c, err := DialUDP(s.UDPAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c.Send
	}
	c, err := DialTCP(context.Background(), s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.conn.Close() })
	return func(a *alert.Alert) error {
		if err := c.Send(a); err != nil {
			return err
		}
		return c.Flush()
	}
}

var protos = []string{"tcp", "udp"}

func TestQueueOverflowShedsNotBlocks(t *testing.T) {
	// With a tiny queue and a stuck handler, excess rows are shed (and
	// counted, per row) rather than stalling the readers — on both
	// protocols, through the batch path the daemon runs.
	for _, proto := range protos {
		t.Run(proto, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.QueueDepth = 1
			slow := make(chan struct{})
			s, err := ListenBatch(cfg, func(*alert.Batch) { <-slow })
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { close(slow); s.Close() })
			send := dialProto(t, s, proto)
			for i := 0; i < 64; i++ {
				a := testAlert(uint64(i))
				if err := send(&a); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) {
				st := s.Stats()
				if st.AlertsAccepted+st.AlertsRejected >= 64 {
					if st.AlertsRejected == 0 {
						t.Error("no shedding under a stuffed queue")
					}
					if st.QueueFull != st.AlertsRejected {
						t.Errorf("shed rows not counted under QueueFull: %+v", st)
					}
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			t.Fatalf("server stalled instead of shedding: %+v", s.Stats())
		})
	}
}

// TestCloseDeliversEveryAcceptedRow closes the server while a sender is
// still writing: every row counted in AlertsAccepted must have been
// through the handler by the time Close returns.
func TestCloseDeliversEveryAcceptedRow(t *testing.T) {
	for _, proto := range protos {
		t.Run(proto, func(t *testing.T) {
			for round := 0; round < 8; round++ {
				var handled atomic.Int64
				s, err := ListenBatch(DefaultConfig(), func(b *alert.Batch) { handled.Add(int64(b.Len())) })
				if err != nil {
					t.Fatal(err)
				}
				send := dialProto(t, s, proto)
				stop := make(chan struct{})
				sent := make(chan struct{})
				go func() {
					defer close(sent)
					a := testAlert(1)
					for {
						select {
						case <-stop:
							return
						default:
						}
						if send(&a) != nil && proto == "tcp" {
							return // the server closed the connection
						}
					}
				}()
				if !WaitForAccepted(s, 200, 5*time.Second) {
					t.Fatalf("accepted %d of 200", s.Stats().AlertsAccepted)
				}
				s.Close()
				if st, got := s.Stats(), handled.Load(); int64(st.AlertsAccepted) != got {
					t.Errorf("round %d: accepted %d rows, handler saw %d", round, st.AlertsAccepted, got)
				}
				close(stop)
				<-sent
			}
		})
	}
}

// batchCollector gathers alerts delivered through the batch handler,
// copying rows out (the batch is reused after the handler returns).
type batchCollector struct {
	mu      sync.Mutex
	got     []alert.Alert
	batches int
}

func (c *batchCollector) handle(b *alert.Batch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.batches++
	var a alert.Alert
	for i := 0; i < b.Len(); i++ {
		b.AlertAt(i, &a)
		c.got = append(c.got, a)
	}
}

func (c *batchCollector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func (c *batchCollector) waitHandled(n int, deadline time.Duration) int {
	end := time.Now().Add(deadline)
	for c.len() < n && time.Now().Before(end) {
		time.Sleep(2 * time.Millisecond)
	}
	return c.len()
}

func startBatchServer(t *testing.T, cfg Config) (*Server, *batchCollector) {
	t.Helper()
	col := &batchCollector{}
	s, err := ListenBatch(cfg, col.handle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, col
}

// TestBatchDispatchRoundTrip pushes alerts over both protocols in batch
// mode and checks that every one arrives intact, regardless of how the
// dispatcher chose to group them.
func TestBatchDispatchRoundTrip(t *testing.T) {
	s, col := startBatchServer(t, DefaultConfig())

	uc, err := DialUDP(s.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	tc, err := DialTCP(context.Background(), s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	const perProto = 50
	for i := 1; i <= perProto; i++ {
		// The wire carries no ID (the preprocessor assigns them), so rows
		// are tagged through Value: i for UDP, 1000+i for TCP.
		a := testAlert(uint64(i))
		a.Value = float64(i)
		if err := uc.Send(&a); err != nil {
			t.Fatal(err)
		}
		a = testAlert(uint64(1000 + i))
		a.Value = float64(1000 + i)
		if err := tc.Send(&a); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := col.waitHandled(2*perProto, 5*time.Second); got != 2*perProto {
		t.Fatalf("handled %d of %d", got, 2*perProto)
	}

	col.mu.Lock()
	defer col.mu.Unlock()
	seen := map[int]bool{}
	want := testAlert(1)
	for _, a := range col.got {
		tag := int(a.Value)
		if seen[tag] {
			t.Errorf("alert %d delivered twice", tag)
		}
		seen[tag] = true
		if a.Source != want.Source || a.Type != want.Type || a.Location != want.Location ||
			!a.Time.Equal(want.Time) || a.Count != want.Count {
			t.Errorf("mangled alert: %+v", a)
		}
	}
	for i := 1; i <= perProto; i++ {
		if !seen[i] || !seen[1000+i] {
			t.Fatalf("missing alert(s): udp[%d]=%v tcp[%d]=%v", i, seen[i], 1000+i, seen[1000+i])
		}
	}
	if col.batches >= 2*perProto {
		t.Logf("dispatcher never coalesced (batches=%d) — allowed but unexpected", col.batches)
	}
}

// TestBatchDispatchRejectsGarbage checks that malformed and invalid UDP
// frames are dropped from the batch without poisoning neighboring rows.
func TestBatchDispatchRejectsGarbage(t *testing.T) {
	s, col := startBatchServer(t, DefaultConfig())
	c, err := DialUDP(s.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.conn.Write([]byte("not|a|valid|alert")); err != nil {
		t.Fatal(err)
	}
	good := testAlert(7)
	good.Value = 7
	if err := c.Send(&good); err != nil {
		t.Fatal(err)
	}
	if got := col.waitHandled(1, 2*time.Second); got != 1 {
		t.Fatalf("handled %d, want 1", got)
	}
	st := s.Stats()
	if st.UDPParseErrors != 1 {
		t.Errorf("UDPParseErrors = %d, want 1", st.UDPParseErrors)
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	if col.got[0].Value != 7 {
		t.Errorf("surviving row = %+v, want Value 7", col.got[0])
	}
}

// TestBatchDispatchCloseDrains verifies queued alerts still reach the
// batch handler when the server closes right after they are accepted.
func TestBatchDispatchCloseDrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TCPAddr = ""
	s, col := startBatchServer(t, cfg)
	c, err := DialUDP(s.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 25; i++ {
		a := testAlert(uint64(i))
		if err := c.Send(&a); err != nil {
			t.Fatal(err)
		}
	}
	if !WaitForAccepted(s, 25, 2*time.Second) {
		t.Fatalf("accepted %d of 25", s.Stats().AlertsAccepted)
	}
	s.Close()
	if got := col.len(); got != 25 {
		t.Fatalf("handled %d after Close, want 25", got)
	}
}
