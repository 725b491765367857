package ingest

import (
	"context"
	"strings"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/hierarchy"
	"skynet/internal/telemetry"
)

func TestRejectReasonsSumToTotal(t *testing.T) {
	s, _ := startServer(t, DefaultConfig())

	// UDP parse reject.
	cu, err := DialUDP(s.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cu.Close()
	if _, err := cu.conn.Write([]byte("not|a|valid|alert")); err != nil {
		t.Fatal(err)
	}

	// TCP validation reject, then a good alert so we can sync.
	ct, err := DialTCP(context.Background(), s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	bad := testAlert(1)
	bad.Location = hierarchy.Root()
	if err := ct.Send(&bad); err != nil {
		t.Fatal(err)
	}
	good := testAlert(2)
	if err := ct.Send(&good); err != nil {
		t.Fatal(err)
	}
	if err := ct.Flush(); err != nil {
		t.Fatal(err)
	}
	if !WaitForAccepted(s, 1, 2*time.Second) {
		t.Fatal("good alert not accepted")
	}

	deadline := time.Now().Add(2 * time.Second)
	var st Stats
	for time.Now().Before(deadline) {
		st = s.Stats()
		if st.AlertsRejected >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.AlertsRejected != 2 {
		t.Fatalf("rejected = %d, want 2", st.AlertsRejected)
	}
	if st.UDPParseErrors != 1 || st.TCPInvalid != 1 {
		t.Errorf("reasons = %+v, want 1 UDP parse + 1 TCP invalid", st)
	}
	if sum := st.TCPDecodeErrors + st.TCPInvalid + st.UDPParseErrors + st.UDPInvalid + st.QueueFull; sum != st.AlertsRejected {
		t.Errorf("reasons sum to %d, total is %d", sum, st.AlertsRejected)
	}
	if st.QueueHighWater < 0 || st.QueueHighWater > DefaultConfig().QueueDepth {
		t.Errorf("queue high water out of range: %d", st.QueueHighWater)
	}
}

func TestQueueHighWaterTracksDepth(t *testing.T) {
	// A handler that blocks until released forces the queue to fill: on
	// either protocol the high-water mark, QueueLoad and shedding all
	// count queued rows against QueueDepth.
	for _, proto := range protos {
		t.Run(proto, func(t *testing.T) {
			release := make(chan struct{})
			cfg := DefaultConfig()
			cfg.QueueDepth = 4
			s, err := ListenBatch(cfg, func(*alert.Batch) { <-release })
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				close(release)
				s.Close()
			}()
			send := dialProto(t, s, proto)
			deadline := time.Now().Add(2 * time.Second)
			for i := 1; time.Now().Before(deadline); i++ {
				if st := s.Stats(); st.QueueHighWater >= cfg.QueueDepth && st.QueueFull > 0 {
					break
				}
				a := testAlert(uint64(i))
				if err := send(&a); err != nil {
					t.Fatal(err)
				}
				// Long enough for the reader to find its socket empty and
				// flush, so rows queue one by one and the queue fills to
				// exactly its depth.
				time.Sleep(4 * time.Millisecond)
			}
			st := s.Stats()
			if st.QueueHighWater != cfg.QueueDepth || st.QueueFull == 0 {
				t.Fatalf("flood never filled the queue: %+v", st)
			}
			if depth, capacity := s.QueueLoad(); depth != cfg.QueueDepth || capacity != cfg.QueueDepth {
				t.Errorf("QueueLoad = %d/%d, want %d/%d", depth, capacity, cfg.QueueDepth, cfg.QueueDepth)
			}
			// One batch stuck in the handler plus a full queue.
			if st.AlertsAccepted > 2*cfg.QueueDepth {
				t.Errorf("accepted %d rows past a stuck handler with QueueDepth %d", st.AlertsAccepted, cfg.QueueDepth)
			}
		})
	}
}

func TestRegisterMetricsMatchesStats(t *testing.T) {
	s, _ := startServer(t, DefaultConfig())
	reg := telemetry.New()
	s.RegisterMetrics(reg)
	c, err := DialUDP(s.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 5; i++ {
		a := testAlert(uint64(i))
		if err := c.Send(&a); err != nil {
			t.Fatal(err)
		}
	}
	if !WaitForAccepted(s, 5, 2*time.Second) {
		t.Fatal("alerts not accepted")
	}
	vals := map[string]float64{}
	for _, m := range reg.Snapshot() {
		vals[m.Name] = m.Value
	}
	st := s.Stats()
	if int(vals["skynet_ingest_alerts_accepted_total"]) != st.AlertsAccepted {
		t.Errorf("metrics accepted %v, stats %d — sources drifted",
			vals["skynet_ingest_alerts_accepted_total"], st.AlertsAccepted)
	}
	if int(vals["skynet_ingest_alerts_rejected_total"]) != st.AlertsRejected {
		t.Errorf("metrics rejected %v, stats %d", vals["skynet_ingest_alerts_rejected_total"], st.AlertsRejected)
	}
	if int(vals["skynet_ingest_queue_high_water"]) != st.QueueHighWater {
		t.Errorf("metrics hwm %v, stats %d", vals["skynet_ingest_queue_high_water"], st.QueueHighWater)
	}
	if got, ok := vals["skynet_ingest_udp_kernel_drops_total"]; !ok || int(got) != st.UDPKernelDrops {
		t.Errorf("metrics kernel drops %v (registered: %v), stats %d", got, ok, st.UDPKernelDrops)
	}
	if got, ok := vals["skynet_ingest_udp_rcvbuf_bytes"]; !ok || int(got) != s.udp.rcvbuf {
		t.Errorf("metrics receive buffer %v (registered: %v), the socket's %d", got, ok, s.udp.rcvbuf)
	}
	var b strings.Builder
	if err := reg.Expose(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "skynet_ingest_alerts_accepted_total 5") {
		t.Errorf("exposition missing accepted counter:\n%s", b.String())
	}
}
