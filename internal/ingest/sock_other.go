//go:build !linux

package ingest

import (
	"time"

	"skynet/internal/alert"
)

// sockReader is the one way a reader goroutine takes input from its
// socket. Without a portable non-blocking batch read this is the plain
// form: every read may block, so every read first runs idle (the owner
// hands over the batch it has decoded) and arms the idle timeout, then
// takes one chunk or one datagram with the standard blocking read.
// sock_linux.go reads until the socket is empty before it does either.
type sockReader struct {
	conn    socket
	timeout time.Duration
	idle    func()

	// Datagram sockets only: the one datagram of the last readBatch.
	slab []byte
	size int
	// rcvbuf is the receive buffer the kernel granted; not read here.
	rcvbuf int
}

// newStreamReader reads a TCP connection through Read. timeout > 0 fails
// a Read once the connection has had nothing to read for that long.
func newStreamReader(conn socket, timeout time.Duration, idle func()) (*sockReader, error) {
	return &sockReader{conn: conn, timeout: timeout, idle: idle}, nil
}

// newDatagramReader reads a UDP socket through readBatch and datagram.
func newDatagramReader(conn socket, idle func()) (*sockReader, error) {
	return &sockReader{conn: conn, idle: idle, slab: make([]byte, alert.MaxLineBytes)}, nil
}

// Read implements io.Reader over a stream socket.
func (k *sockReader) Read(p []byte) (int, error) {
	k.idle()
	if k.timeout > 0 {
		if err := k.conn.SetReadDeadline(time.Now().Add(k.timeout)); err != nil {
			return 0, err
		}
	}
	return k.conn.Read(p)
}

// readBatch waits for datagrams and returns how many it took, at least
// one; datagram(i) is valid until the next readBatch.
func (k *sockReader) readBatch() (int, error) {
	n, err := k.Read(k.slab)
	if err != nil {
		return 0, err
	}
	k.size = n
	return 1, nil
}

func (k *sockReader) datagram(int) []byte { return k.slab[:k.size] }

// kernelDrops would be the datagrams the kernel discarded on a full
// receive buffer; only sock_linux.go has a way to ask.
func (k *sockReader) kernelDrops() int { return 0 }
