//go:build linux

package ingest

import (
	"testing"
	"time"
	"unsafe"

	"skynet/internal/alert"
	"skynet/internal/telemetry"
)

// TestMmsghdrLayout pins struct mmsghdr's size against the kernel's: a
// msghdr, a 32-bit length, and padding to the msghdr's alignment.
func TestMmsghdrLayout(t *testing.T) {
	word := unsafe.Sizeof(uintptr(0))
	want := map[uintptr]uintptr{4: 32, 8: 64}[word]
	if got := unsafe.Sizeof(mmsghdr{}); got != want {
		t.Errorf("mmsghdr is %d bytes on a %d-bit target, the kernel's is %d", got, 8*word, want)
	}
}

// TestUDPKernelDropsCounted overflows the UDP socket's receive buffer
// while the reader is held up. The kernel reports its drop count with the
// datagrams it delivers, so once the reader has drained the buffer and one
// more datagram has got through, every datagram sent is accounted for —
// read (and rejected, being garbage) or counted as dropped — in Stats and
// on the metric, and the count survives Close. Nothing else on this side
// of the socket knows the dropped ones were sent.
func TestUDPKernelDropsCounted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TCPAddr = ""
	s, err := ListenBatch(cfg, func(*alert.Batch) {})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := telemetry.New()
	s.RegisterMetrics(reg)
	if s.udp.rcvbuf <= 0 {
		t.Fatalf("granted receive buffer read back as %d", s.udp.rcvbuf)
	}
	conn := dialUDP(t, s)
	release := stallUDPReader(t, s, conn)
	big := make([]byte, 60000) // garbage; few of these fill any buffer
	sent := 1 + 2*s.udp.rcvbuf/len(big) + 16
	for i := 1; i < sent; i++ {
		if _, err := conn.Write(big); err != nil {
			release()
			t.Fatal(err)
		}
	}
	release()
	// The buffer is full of datagrams queued before the first drop; the
	// count rides on the first one queued after the reader has made room.
	var st Stats
	for try := 0; try < 50 && (try == 0 || st.UDPParseErrors+st.UDPKernelDrops < sent); try++ {
		if _, err := conn.Write([]byte("after the drain")); err != nil {
			t.Fatal(err)
		}
		sent++
		st = waitStats(s, 200*time.Millisecond, func(st Stats) bool { return st.UDPParseErrors+st.UDPKernelDrops >= sent })
	}
	if st.UDPKernelDrops == 0 || st.UDPParseErrors+st.UDPKernelDrops != sent {
		t.Fatalf("sent %d datagrams: %d read, %d dropped by the kernel", sent, st.UDPParseErrors, st.UDPKernelDrops)
	}
	if st.AlertsRejected != st.UDPParseErrors {
		t.Errorf("kernel drops counted as rejected: %+v", st)
	}
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "skynet_ingest_udp_kernel_drops_total":
			if int(m.Value) != st.UDPKernelDrops {
				t.Errorf("metric says %v kernel drops, Stats %d", m.Value, st.UDPKernelDrops)
			}
		case "skynet_ingest_udp_rcvbuf_bytes":
			if int(m.Value) != s.udp.rcvbuf {
				t.Errorf("metric says %v bytes of receive buffer, the socket %d", m.Value, s.udp.rcvbuf)
			}
		}
	}
	s.Close()
	if got := s.Stats().UDPKernelDrops; got != st.UDPKernelDrops {
		t.Errorf("%d kernel drops after Close, %d before", got, st.UDPKernelDrops)
	}
}
