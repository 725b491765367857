// Package ingest is SkyNet's network front door: monitoring tools deliver
// raw alerts over TCP (JSON Lines) or UDP (the compact pipe-delimited
// format), and the listeners funnel them, as columnar batches, into a
// single handler — typically core.Engine.IngestBatch under the caller's
// engine lock — serialized on one goroutine so the engine needs no
// internal locking.
//
// The production system sits behind collectors speaking exactly these two
// shapes of protocol: reliable streams from aggregating relays, and
// fire-and-forget datagrams from device-local agents.
//
// There is one data path (DESIGN.md §9): every socket reader — each TCP
// connection, the UDP socket — decodes into a pooled alert.Batch it owns
// and hands it over whole, when it is full or when the reader is about
// to wait on its socket, to one queue bounded in rows; one dispatcher
// ranges that queue into the handler and returns the batch to the pool.
//
// Both kinds of reader take their input through one primitive,
// sockReader: read for as long as the socket has something (on Linux
// without blocking, datagrams up to 32 per recvmmsg), and only when it has
// nothing flush the batch, arm the idle timeout if there is one, and park
// in the netpoller. No reader runs a timer to flush, and a busy socket
// pays neither a flush nor a deadline per read. The primitive is the only
// platform-specific code (sock_linux.go, sock_other.go).
package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"skynet/internal/alert"
	"skynet/internal/telemetry"
)

// Handler consumes ingested alerts one at a time; see Listen.
type Handler func(alert.Alert)

// BatchHandler consumes batches of ingested alerts. Called from the
// single dispatch goroutine; it must not block for long. The batch is
// reset and reused once the call returns, so implementations must copy
// any rows they retain.
type BatchHandler func(*alert.Batch)

// maxIngestBatch caps how many rows a reader accumulates before handing
// its batch off; during a flood readers flush at this size, otherwise as
// soon as their socket has nothing more for them.
const maxIngestBatch = 512

// udpRcvbufBytes is the receive buffer asked of the kernel for the UDP
// socket, derived from time at line rate like skynetd's ingestQueueRows:
// the buffer is what the kernel fills while the reader goroutine is not
// running — descheduled behind a tick's workers on a small box, or paused
// by the collector — and a datagram that finds it full is gone without a
// trace on this side of the socket. The kernel charges a datagram its
// skb, not its payload: 832 B for one of bench/'s 171-byte alerts (Linux
// 6), so the default buffer (net.core.rmem_default, 208 KB) holds 256 of
// them, 6.4 ms at 40 K datagrams/s, while a thread on the benchmark box
// is kept off its CPU for 8–12 ms about once a minute: flood_udp at that
// rate lost datagrams in every other run. 4 MB asked is 8 MB granted (the
// kernel doubles the request) where net.core.rmem_max allows it: 10 082
// such datagrams, 252 ms at 40 K/s, twenty times the stall that overran
// the default. A kernel with a lower rmem_max grants less; the granted
// size is logged at boot and exported as skynet_ingest_udp_rcvbuf_bytes,
// and what the buffer still fails to hold is counted in
// skynet_ingest_udp_kernel_drops_total.
const udpRcvbufBytes = 4 << 20

// Stats counts ingestion activity. Snapshot with Server.Stats. The same
// struct backs /api/stats and the /metrics exposition (via
// RegisterMetrics), so the two always agree.
type Stats struct {
	TCPConnections int
	// AlertsAccepted counts rows admitted to the dispatch queue; every
	// one of them reaches the handler, at the latest during Close.
	AlertsAccepted int
	// AlertsRejected is the total across every reject reason below.
	AlertsRejected int
	// QueueHighWater is the deepest the dispatch queue has been, in rows
	// — how close a flood came to shedding.
	QueueHighWater int

	// Per-protocol reject reasons, summing to AlertsRejected.
	TCPDecodeErrors int // malformed JSON Lines stream (connection dropped)
	TCPInvalid      int // TCP alerts failing validation
	UDPParseErrors  int // malformed compact-format datagrams
	UDPInvalid      int // UDP alerts failing validation
	QueueFull       int // rows shed because the dispatch queue was full

	// UDPKernelDrops counts datagrams the kernel discarded because the UDP
	// socket's receive buffer was full: alerts lost before this package saw
	// them, so not part of AlertsRejected. The kernel reports its count
	// with the datagrams it does deliver (Linux, SO_RXQ_OVFL), so a drop
	// shows once a later datagram has been read. 0 on other platforms.
	UDPKernelDrops int
}

// rejectReason indexes the per-protocol reject counters.
type rejectReason int

const (
	rejectTCPDecode rejectReason = iota
	rejectTCPInvalid
	rejectUDPParse
	rejectUDPInvalid
	rejectQueueFull
)

// Config tunes a Server.
type Config struct {
	// TCPAddr and UDPAddr are listen addresses; empty disables that
	// listener. Use ":0" for an ephemeral port.
	TCPAddr string
	UDPAddr string
	// MaxConns bounds concurrent TCP connections; further dials are
	// accepted and immediately closed.
	MaxConns int
	// ReadTimeout closes idle TCP connections.
	ReadTimeout time.Duration
	// QueueDepth bounds, in rows and across both protocols, what may wait
	// between the readers and the handler goroutine; a batch that would
	// exceed it is shed and counted under QueueFull.
	QueueDepth int
	// Logger receives operational events; nil means slog.Default().
	Logger *slog.Logger
}

// DefaultConfig returns sensible listener defaults on ephemeral ports.
func DefaultConfig() Config {
	return Config{
		TCPAddr:     "127.0.0.1:0",
		UDPAddr:     "127.0.0.1:0",
		MaxConns:    64,
		ReadTimeout: 2 * time.Minute,
		QueueDepth:  1024,
	}
}

// Server runs the listeners. Create with ListenBatch (or Listen), stop
// with Close.
type Server struct {
	cfg     Config
	handler BatchHandler
	log     *slog.Logger
	// batchRows is the reader flush size: maxIngestBatch, or QueueDepth
	// when that is smaller, so that an empty queue admits any batch.
	batchRows int

	tcpLn *net.TCPListener
	udpPc *net.UDPConn
	udp   *sockReader // udpPc as udpLoop reads it

	// queue carries reader-filled batches to the dispatcher and queued
	// counts their rows. Admission keeps queued ≤ QueueDepth and no batch
	// is empty, so the channel (capacity QueueDepth) never blocks a send.
	queue  chan *alert.Batch
	queued atomic.Int64
	pool   sync.Pool // *alert.Batch, reset before Put

	mu          sync.Mutex
	stats       Stats
	rejectCalls int // reject's trips through mu; tests pin one per batch read
	conns       map[net.Conn]struct{}

	ctx       context.Context
	cancel    context.CancelFunc
	readers   sync.WaitGroup // accept loop, connections, UDP reader
	done      chan struct{}  // closed when the dispatcher has exited
	closeOnce sync.Once
}

// socket is what a sockReader needs of a connection: reads and read
// deadlines, and on Linux the descriptor under them.
type socket interface {
	net.Conn
	syscall.Conn
}

// Listen is ListenBatch for a per-alert handler: each batch is walked in
// row order. Rows carry no ID (alert.Batch has no ID column; structured
// IDs are assigned downstream).
func Listen(cfg Config, handler Handler) (*Server, error) {
	if handler == nil {
		return nil, errors.New("ingest: nil handler")
	}
	return ListenBatch(cfg, func(b *alert.Batch) {
		var a alert.Alert
		for i := 0; i < b.Len(); i++ {
			b.AlertAt(i, &a)
			handler(a)
		}
	})
}

// ListenBatch starts the configured listeners and the dispatch
// goroutine. TCP lines and UDP datagrams are decoded (Batch.AppendJSON,
// Batch.AppendWireScratch — no intermediate Alert) on their reader's
// goroutine, straight into the batch the handler will see. Per TCP
// connection and per UDP socket the handler sees rows in arrival order.
func ListenBatch(cfg Config, handler BatchHandler) (*Server, error) {
	if handler == nil {
		return nil, errors.New("ingest: nil batch handler")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		handler:   handler,
		log:       log,
		batchRows: min(maxIngestBatch, cfg.QueueDepth),
		queue:     make(chan *alert.Batch, cfg.QueueDepth),
		conns:     make(map[net.Conn]struct{}),
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	s.pool.New = func() any { return new(alert.Batch) }
	if cfg.TCPAddr != "" {
		ln, err := net.Listen("tcp", cfg.TCPAddr)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("ingest: tcp listen: %w", err)
		}
		s.tcpLn = ln.(*net.TCPListener)
	}
	if cfg.UDPAddr != "" {
		if err := s.listenUDP(); err != nil {
			if s.tcpLn != nil {
				s.tcpLn.Close()
			}
			cancel()
			return nil, fmt.Errorf("ingest: udp listen: %w", err)
		}
	}
	if s.tcpLn != nil {
		s.readers.Add(1)
		go s.acceptLoop()
	}
	go s.dispatch()
	return s, nil
}

// listenUDP opens the UDP socket, asks for udpRcvbufBytes of receive
// buffer and starts udpLoop on it.
func (s *Server) listenUDP() error {
	pc, err := net.ListenPacket("udp", s.cfg.UDPAddr)
	if err != nil {
		return err
	}
	s.udpPc = pc.(*net.UDPConn)
	if err := s.udpPc.SetReadBuffer(udpRcvbufBytes); err != nil {
		s.log.Warn("ingest: udp receive buffer", "asked", udpRcvbufBytes, "err", err)
	}
	r := &reader{s: s}
	if s.udp, err = newDatagramReader(s.udpPc, r.flush); err != nil {
		s.udpPc.Close()
		return err
	}
	s.log.Info("ingest: udp receive buffer", "asked", udpRcvbufBytes, "granted", s.udp.rcvbuf)
	s.readers.Add(1)
	go s.udpLoop(r)
	return nil
}

// TCPAddr returns the bound TCP address, or nil when TCP is disabled.
func (s *Server) TCPAddr() net.Addr {
	if s.tcpLn == nil {
		return nil
	}
	return s.tcpLn.Addr()
}

// UDPAddr returns the bound UDP address, or nil when UDP is disabled.
func (s *Server) UDPAddr() net.Addr {
	if s.udpPc == nil {
		return nil
	}
	return s.udpPc.LocalAddr()
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	if s.udp != nil {
		st.UDPKernelDrops = s.udp.kernelDrops()
	}
	return st
}

// QueueLoad returns the dispatch queue's current depth and capacity in
// rows, both protocols together — the backpressure surface watched by
// the flight recorder.
func (s *Server) QueueLoad() (depth, capacity int) {
	return int(s.queued.Load()), s.cfg.QueueDepth
}

// Close stops the server and returns once every accepted row has been
// through the handler. The order matters: stop the listeners and
// connections, wait for the readers (each flushes its partial batch on
// the way out), only then close the queue, and let the dispatcher range
// it dry. It is idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.cancel()
		if s.tcpLn != nil {
			s.tcpLn.Close()
		}
		if s.udpPc != nil {
			s.udpPc.Close()
		}
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.readers.Wait()
		close(s.queue)
	})
	<-s.done
	return nil
}

// dispatch serializes queued batches into the handler and recycles them.
func (s *Server) dispatch() {
	defer close(s.done)
	for b := range s.queue {
		s.queued.Add(-int64(b.Len()))
		s.handler(b)
		b.Reset()
		s.pool.Put(b)
	}
}

// reader is the batch one socket reader is filling. It is nil between a
// flush and the next row, so an idle connection holds no batch.
type reader struct {
	s *Server
	b *alert.Batch
}

// batch returns the batch to decode the next row into.
func (r *reader) batch() *alert.Batch {
	if r.b == nil {
		r.b = r.s.pool.Get().(*alert.Batch)
	}
	return r.b
}

// rows is the number of decoded rows not yet flushed.
func (r *reader) rows() int {
	if r.b == nil {
		return 0
	}
	return r.b.Len()
}

// flush hands the rows decoded so far to the dispatcher, or sheds (and
// counts) all of them when the queue has no room — backpressure must not
// stall the network readers during an alert flood. Either way the reader
// no longer owns the batch.
func (r *reader) flush() {
	n := r.rows()
	if n == 0 {
		return
	}
	s, b := r.s, r.b
	r.b = nil
	depth := int(s.queued.Add(int64(n)))
	if depth > s.cfg.QueueDepth {
		s.queued.Add(-int64(n))
		s.reject(rejectQueueFull, n)
		b.Reset()
		s.pool.Put(b)
		return
	}
	s.mu.Lock()
	s.stats.AlertsAccepted += n
	if depth > s.stats.QueueHighWater {
		s.stats.QueueHighWater = depth
	}
	s.mu.Unlock()
	s.queue <- b
}

// reject counts n rows (or, for a stream decode error, the one broken
// stream) under a reject reason.
func (s *Server) reject(why rejectReason, n int) {
	if n == 0 {
		return
	}
	s.mu.Lock()
	s.rejectCalls++
	s.stats.AlertsRejected += n
	switch why {
	case rejectTCPDecode:
		s.stats.TCPDecodeErrors += n
	case rejectTCPInvalid:
		s.stats.TCPInvalid += n
	case rejectUDPParse:
		s.stats.UDPParseErrors += n
	case rejectUDPInvalid:
		s.stats.UDPInvalid += n
	case rejectQueueFull:
		s.stats.QueueFull += n
	}
	s.mu.Unlock()
}

// RegisterMetrics exposes the server's counters on a telemetry registry.
// The callbacks read the same Stats struct /api/stats serves, so the two
// surfaces can never drift apart.
func (s *Server) RegisterMetrics(reg *telemetry.Registry) {
	stat := func(pick func(Stats) int) func() float64 {
		return func() float64 { return float64(pick(s.Stats())) }
	}
	reg.CounterFunc("skynet_ingest_tcp_connections_total",
		"TCP alert connections accepted.",
		stat(func(st Stats) int { return st.TCPConnections }))
	reg.CounterFunc("skynet_ingest_alerts_accepted_total",
		"Alerts accepted into the dispatch queue.",
		stat(func(st Stats) int { return st.AlertsAccepted }))
	reg.CounterFunc("skynet_ingest_alerts_rejected_total",
		"Alerts rejected across all reasons.",
		stat(func(st Stats) int { return st.AlertsRejected }))
	reg.CounterFunc("skynet_ingest_rejected_tcp_decode_total",
		"TCP streams dropped on a malformed JSON line.",
		stat(func(st Stats) int { return st.TCPDecodeErrors }))
	reg.CounterFunc("skynet_ingest_rejected_tcp_invalid_total",
		"TCP alerts failing validation.",
		stat(func(st Stats) int { return st.TCPInvalid }))
	reg.CounterFunc("skynet_ingest_rejected_udp_parse_total",
		"Malformed compact-format UDP datagrams.",
		stat(func(st Stats) int { return st.UDPParseErrors }))
	reg.CounterFunc("skynet_ingest_rejected_udp_invalid_total",
		"UDP alerts failing validation.",
		stat(func(st Stats) int { return st.UDPInvalid }))
	reg.CounterFunc("skynet_ingest_rejected_queue_full_total",
		"Alerts shed because the dispatch queue was full.",
		stat(func(st Stats) int { return st.QueueFull }))
	reg.GaugeFunc("skynet_ingest_queue_high_water",
		"Deepest the dispatch queue has been.",
		stat(func(st Stats) int { return st.QueueHighWater }))
	reg.GaugeFunc("skynet_ingest_queue_depth",
		"Current dispatch queue depth.",
		func() float64 { return float64(s.queued.Load()) })
	reg.CounterFunc("skynet_ingest_udp_kernel_drops_total",
		"Datagrams the kernel dropped on a full UDP receive buffer (Linux; 0 elsewhere).",
		stat(func(st Stats) int { return st.UDPKernelDrops }))
	reg.GaugeFunc("skynet_ingest_udp_rcvbuf_bytes",
		"UDP receive buffer the kernel granted (Linux; 0 elsewhere or with UDP disabled).",
		func() float64 {
			if s.udp == nil {
				return 0
			}
			return float64(s.udp.rcvbuf)
		})
}

// acceptLoop accepts TCP connections up to MaxConns.
func (s *Server) acceptLoop() {
	defer s.readers.Done()
	for {
		conn, err := s.tcpLn.AcceptTCP()
		if err != nil {
			if s.ctx.Err() != nil {
				return
			}
			s.log.Warn("ingest: accept", "err", err)
			continue
		}
		s.mu.Lock()
		// Close cancels before it walks conns under mu, so a connection
		// registered here is either seen by that walk or sees the cancel.
		if s.ctx.Err() != nil {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.log.Warn("ingest: connection limit reached, closing", "remote", conn.RemoteAddr())
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.stats.TCPConnections++
		s.mu.Unlock()
		s.readers.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn reads JSON Lines alerts from one TCP connection, each line
// decoded straight into batch columns (Batch.AppendJSON) through the
// connection's own WireScratch. The batch is flushed when full and,
// through the connection's sockReader, whenever the framer asks for more
// than the socket has — no timer. That flush runs inside lines.Next, so
// the batch to decode into is taken only once the next line is in hand:
// a batch fetched before it may already be the dispatcher's.
func (s *Server) serveConn(conn *net.TCPConn) {
	defer s.readers.Done()
	r := reader{s: s}
	defer func() {
		r.flush()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	k, err := newStreamReader(conn, s.cfg.ReadTimeout, r.flush)
	if err != nil {
		s.log.Warn("ingest: tcp connection", "remote", conn.RemoteAddr(), "err", err)
		return
	}
	lines := alert.NewLines(k)
	var sc alert.WireScratch
	for {
		line, err := lines.Next()
		if errors.Is(err, io.EOF) {
			return
		}
		var b *alert.Batch
		if err == nil {
			b = r.batch()
			err = b.AppendJSON(line, &sc)
		}
		if err != nil {
			if s.ctx.Err() == nil {
				s.log.Warn("ingest: tcp decode", "remote", conn.RemoteAddr(), "err", err)
			}
			s.reject(rejectTCPDecode, 1)
			return
		}
		if s.dropInvalid(b) {
			s.reject(rejectTCPInvalid, 1)
			continue
		}
		if b.Len() >= s.batchRows {
			r.flush()
		}
	}
}

// dropInvalid validates the row a reader has just decoded and removes it
// again when it fails. Raw syslog lines are exempt: they get their type
// from the preprocessor's classifier.
func (s *Server) dropInvalid(b *alert.Batch) bool {
	i := b.Len() - 1
	if b.Source[i] == alert.SourceSyslog || b.ValidateRow(i) == nil {
		return false
	}
	b.DropLast()
	return true
}

// udpLoop reads one compact-format alert per datagram, decoded straight
// into batch columns (Batch.AppendWireScratch). The loop owns a
// WireScratch (single goroutine, no locking) so repeated field values
// across datagrams decode without allocating. s.udp hands it every
// datagram the socket holds, a batch read at a time, and runs r.flush
// when the socket is empty, just before it parks: the batch goes out full
// or as soon as nothing more is waiting, and nothing here keeps a timer.
// That flush happens inside readBatch, so the batch is taken per datagram
// afterwards, never held across a read. The datagrams of one batch read
// take s.mu once for their reject counts, not once each.
func (s *Server) udpLoop(r *reader) {
	defer s.readers.Done()
	defer r.flush()
	var sc alert.WireScratch
	var faults readFaults
	for {
		n, err := s.udp.readBatch()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || !faults.pause(s, err) {
				return
			}
			continue
		}
		faults.delay = 0
		var unparsed, invalid int
		for i := 0; i < n; i++ {
			b := r.batch()
			if b.AppendWireScratch(trimNewline(s.udp.datagram(i)), &sc) != nil {
				unparsed++
			} else if s.dropInvalid(b) {
				invalid++
			} else if b.Len() >= s.batchRows {
				r.flush()
			}
		}
		s.reject(rejectUDPParse, unparsed)
		s.reject(rejectUDPInvalid, invalid)
	}
}

// readFaults keeps a socket that fails every read from spinning its reader
// or the log: each distinct error is logged once at Warn (repeats at
// Debug), and the reader sleeps before it tries again, 1 ms doubling to 1 s
// for as long as reads keep failing.
type readFaults struct {
	seen  map[string]struct{}
	delay time.Duration
}

// pause logs err and sleeps; false means the server closed meanwhile.
func (f *readFaults) pause(s *Server, err error) bool {
	level := slog.LevelDebug
	if _, dup := f.seen[err.Error()]; !dup {
		if f.seen == nil {
			f.seen = make(map[string]struct{})
		}
		f.seen[err.Error()] = struct{}{}
		level = slog.LevelWarn
	}
	f.delay = min(max(2*f.delay, time.Millisecond), time.Second)
	s.log.Log(s.ctx, level, "ingest: udp read", "err", err, "retry_in", f.delay)
	select {
	case <-s.ctx.Done():
		return false
	case <-time.After(f.delay):
		return true
	}
}

func trimNewline(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}
