//go:build linux

package ingest

import (
	"errors"
	"io"
	"os"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"skynet/internal/alert"
)

// udpBatchReads is how many datagrams one recvmmsg may return: enough
// that a flood costs a thirty-second of a syscall per datagram, while the
// slab's slots, MaxLineBytes each because any datagram may be that long,
// stay at 2 MB. Datagrams only ever touch the first pages of each slot;
// whether the rest is resident depends on whether the heap had to zero a
// used span to make the slab (bench/ reads it as 0–3 MB of rss_peak_mb
// on the workloads that do not use UDP).
const udpBatchReads = 32

// mmsghdr is struct mmsghdr from <sys/socket.h>: a msghdr plus the length
// received into it. Go pads it to the alignment of Msghdr's pointers as
// C does, so the layout is right on 32- and 64-bit targets without a
// hand-written pad.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// dropsCmsgSpace is the control-data room of one datagram: a cmsghdr and
// the 32-bit count SO_RXQ_OVFL attaches.
var dropsCmsgSpace = syscall.CmsgSpace(4)

// sockReader is the one way a reader goroutine takes input from its
// socket: read without blocking for as long as the socket has something,
// and only when it has nothing run idle (the owner hands over the batch it
// has decoded), arm the idle timeout and park in the netpoller until the
// socket is readable again. A busy socket therefore costs no timer and no
// flush per read, and an idle one holds no decoded rows back.
type sockReader struct {
	conn    socket
	rc      syscall.RawConn
	timeout time.Duration
	idle    func()

	// One read's operation, argument and results. They live here so that
	// attempt — the callback RawConn.Read runs again after every wake-up —
	// is built once and a read allocates nothing.
	op      func(fd int) (int, error)
	attempt func(fd uintptr) bool
	p       []byte
	n       int
	err     error
	parked  bool

	// Datagram sockets only: msgs[i] receives into slot i of slab and its
	// control data into slot i of ctl.
	slab []byte
	ctl  []byte
	msgs []mmsghdr
	// rcvbuf is the receive buffer the kernel granted: it doubles the
	// request and caps it at net.core.rmem_max.
	rcvbuf int
	// The socket's drop count as the last datagram that carried one
	// reported it (32 bits, wrapping), and the drops added up from there.
	lastDrops uint32
	drops     atomic.Int64
}

func newSockReader(conn socket, timeout time.Duration, idle func()) (*sockReader, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	k := &sockReader{conn: conn, rc: rc, timeout: timeout, idle: idle}
	k.attempt = k.tryOnce
	return k, nil
}

// newStreamReader reads a TCP connection through Read. timeout > 0 fails
// a Read once the connection has had nothing to read for that long.
func newStreamReader(conn socket, timeout time.Duration, idle func()) (*sockReader, error) {
	k, err := newSockReader(conn, timeout, idle)
	if err != nil {
		return nil, err
	}
	k.op = func(fd int) (int, error) { return syscall.Read(fd, k.p) }
	return k, nil
}

// newDatagramReader reads a UDP socket through readBatch and datagram. It
// asks the kernel to report the socket's drop count (SO_RXQ_OVFL) with the
// datagrams it delivers.
func newDatagramReader(conn socket, idle func()) (*sockReader, error) {
	k, err := newSockReader(conn, 0, idle)
	if err != nil {
		return nil, err
	}
	var serr error
	err = k.rc.Control(func(fd uintptr) {
		if k.rcvbuf, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF); serr == nil {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, 1)
		}
	})
	if err = errors.Join(err, serr); err != nil {
		return nil, err
	}
	k.slab = make([]byte, udpBatchReads*alert.MaxLineBytes)
	k.ctl = make([]byte, udpBatchReads*dropsCmsgSpace)
	k.msgs = make([]mmsghdr, udpBatchReads)
	iov := make([]syscall.Iovec, udpBatchReads)
	for i := range k.msgs {
		iov[i].Base = &k.slab[i*alert.MaxLineBytes]
		iov[i].SetLen(alert.MaxLineBytes)
		k.msgs[i].hdr.Iov = &iov[i]
		k.msgs[i].hdr.Iovlen = 1
		k.msgs[i].hdr.Control = &k.ctl[i*dropsCmsgSpace]
	}
	// RawSyscall6, not Syscall6: the call cannot block (MSG_DONTWAIT) and
	// copies at most the slab, so the scheduler need not be told about it,
	// and telling it is dear. When every P is idle sysmon sleeps until a
	// goroutine enters a syscall; entersyscall then wakes it with a futex,
	// and it naps in 20 µs steps until the Ps are idle again, 13–16 µs of
	// CPU on its own thread. This reader comes out of idle 2–5 K times a
	// second at 10 K datagrams/s — how often depends on where the kernel
	// runs the sender — so through Syscall6 that is a third of skynetd's
	// CPU and differs by half from one run to the next (EXPERIMENTS.md,
	// Fig. 8c section).
	k.op = func(fd int) (int, error) {
		n, _, errno := syscall.RawSyscall6(syscall.SYS_RECVMMSG, uintptr(fd),
			uintptr(unsafe.Pointer(&k.msgs[0])), udpBatchReads, syscall.MSG_DONTWAIT, 0, 0)
		if errno != 0 {
			return 0, errno
		}
		return int(n), nil
	}
	return k, nil
}

// tryOnce is one non-blocking attempt, run by RawConn.Read with the read
// lock held: true ends the wait, false parks until the socket is readable.
func (k *sockReader) tryOnce(fd uintptr) bool {
	for {
		k.n, k.err = k.op(int(fd))
		if k.err != syscall.EINTR {
			break
		}
	}
	if k.err != syscall.EAGAIN {
		return true
	}
	if !k.parked {
		k.parked = true
		k.idle()
		if k.timeout > 0 {
			// SetReadDeadline takes no read lock, so it may run in here.
			if k.err = k.conn.SetReadDeadline(time.Now().Add(k.timeout)); k.err != nil {
				return true
			}
		}
	}
	return false
}

// wait runs op until it has a result other than "would block".
func (k *sockReader) wait() (int, error) {
	for {
		k.parked = false
		err := k.rc.Read(k.attempt)
		if err == nil {
			if k.err != nil {
				return 0, k.err
			}
			return k.n, nil
		}
		if k.timeout > 0 && !k.parked && errors.Is(err, os.ErrDeadlineExceeded) {
			// The deadline armed at an earlier park ran out while the socket
			// kept the reader too busy to park again: not idleness. Clear it.
			if err := k.conn.SetReadDeadline(time.Time{}); err != nil {
				return 0, err
			}
			continue
		}
		return 0, err
	}
}

// Read implements io.Reader over a stream socket.
func (k *sockReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	k.p = p
	n, err := k.wait()
	k.p = nil
	if err == nil && n == 0 {
		return 0, io.EOF
	}
	return n, err
}

// readBatch waits for datagrams and returns how many it took, at least
// one; datagram(i) is valid until the next readBatch.
func (k *sockReader) readBatch() (int, error) {
	// The kernel writes a header's control length back: 0, or what the
	// drop count took.
	for i := range k.msgs {
		k.msgs[i].hdr.SetControllen(dropsCmsgSpace)
	}
	n, err := k.wait()
	for i := range k.msgs[:n] {
		if k.msgs[i].hdr.Controllen != 0 {
			k.noteDrops(i)
		}
	}
	return n, err
}

func (k *sockReader) datagram(i int) []byte {
	lo := i * alert.MaxLineBytes
	return k.slab[lo : lo+int(k.msgs[i].n)]
}

// noteDrops reads the drop count datagram i carries: the number of
// datagrams the socket had discarded on a full receive buffer when this
// one was queued. The kernel attaches it only once it is non-zero.
func (k *sockReader) noteDrops(i int) {
	ctl := k.ctl[i*dropsCmsgSpace:][:dropsCmsgSpace]
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&ctl[0]))
	if h.Level != syscall.SOL_SOCKET || h.Type != syscall.SO_RXQ_OVFL {
		return
	}
	count := *(*uint32)(unsafe.Pointer(&ctl[syscall.CmsgLen(0)]))
	k.drops.Add(int64(count - k.lastDrops))
	k.lastDrops = count
}

// kernelDrops is how many datagrams the kernel has discarded because the
// socket's receive buffer was full, as of the last datagram read: a drop
// shows once a later datagram has got through. Any goroutine may call it.
func (k *sockReader) kernelDrops() int { return int(k.drops.Load()) }
