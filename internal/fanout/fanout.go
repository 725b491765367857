// Package fanout is the snapshot+delta serving core: the layer between
// the incident engine and an arbitrary number of live feed consumers
// (SSE dashboards, consoles, benchmark harnesses).
//
// The design rule is encode once, fan out pointers. Each tick the
// engine publishes one immutable pre-encoded feed snapshot plus one
// compact delta into the hub; journal chatter (incident lifecycle
// events, flood phase changes, SLO transitions, anomalies) rides the
// same path. Every published frame is rendered exactly once into a
// refcounted byte buffer and placed in a shared ring; subscribers hold
// cursors into the ring and retain/release frames — there is never a
// per-subscriber copy, a per-subscriber goroutine on the publish path,
// or a per-subscriber channel send.
//
// Publishing is O(ring maintenance), independent of the subscriber
// count: the only broadcast primitive is closing a shared wake channel.
// A subscriber that falls off the ring is resynced — it receives a
// drop-accounted "resync" event, then the latest snapshot, then the
// live tail — instead of blocking the publisher or buffering without
// bound. A subscriber that stops polling entirely is evicted after a
// bounded lag. Consecutive deltas pending for one subscriber are
// coalesced into a single merged delta at poll time.
//
// Concurrency contract: a Subscriber's Poll/Wait/Close methods must be
// called from one consumer goroutine at a time (successive calls from
// different goroutines are fine when externally ordered, e.g. a worker
// pool with channel handoff). The Hub itself is fully concurrent.
package fanout

import (
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// SSE event names on the wire. The first four match the EventBus-era
// /api/events types, so pre-fanout clients keep working; snapshot,
// delta, and resync are new.
const (
	EventIncident = "incident"
	EventAnomaly  = "anomaly"
	EventFlood    = "flood"
	EventSLO      = "slo"
	EventDelta    = "delta"
	EventSnapshot = "snapshot"
	EventResync   = "resync"
)

// Kind classifies a frame for per-kind drop accounting — the fix for
// the EventBus era's single aggregate drop counter, where a lost flood
// transition was indistinguishable from lost journal chatter.
type Kind uint8

const (
	KindOther Kind = iota
	KindIncident
	KindAnomaly
	KindFlood
	KindSLO
	KindDelta
	KindSnapshot
	KindResync
	numKinds
)

var kindNames = [numKinds]string{"other", "incident", "anomaly", "flood", "slo", "delta", "snapshot", "resync"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "other"
}

// KindOf maps an SSE event name to its accounting kind.
func KindOf(event string) Kind {
	switch event {
	case EventIncident:
		return KindIncident
	case EventAnomaly:
		return KindAnomaly
	case EventFlood:
		return KindFlood
	case EventSLO:
		return KindSLO
	case EventDelta:
		return KindDelta
	case EventSnapshot:
		return KindSnapshot
	case EventResync:
		return KindResync
	}
	return KindOther
}

var (
	// ErrClosed is returned by subscriber calls after Hub.Close.
	ErrClosed = errors.New("fanout: hub closed")
	// ErrEvicted is returned to a subscriber removed as a slow consumer.
	ErrEvicted = errors.New("fanout: subscriber evicted (slow consumer)")
)

// Frame is one immutable, pre-rendered SSE frame shared by reference.
// Ownership follows the refcount: the hub holds one reference while the
// frame sits in the ring (or the snapshot slot), and each subscriber
// batch holds one taken at poll time. Release drops a reference; the
// final release returns the buffer to the hub's pool. Bytes must not be
// used after Release.
type Frame struct {
	seq   uint64
	kind  Kind
	pubAt time.Time // publish instant, for latency accounting; never serialized
	buf   []byte
	delta *FeedDelta // structured delta for KindDelta frames (enables merge)
	// pending marks a tick frame that has not been rendered yet:
	// PublishTickOwned stores the documents unrendered, keeping the tick
	// path free of JSON encoding, and the first Bytes caller pays the
	// render once for every reader. A snapshot lapped by the next tick
	// before anyone resyncs is never rendered at all. The render state
	// lives inline (pendSnap holds the snapshot to render, nil for delta
	// frames, which render their own delta; pendStamp the wall stamp to
	// encode with) so deferring costs the publisher no allocation.
	pending   atomic.Bool
	renderMu  sync.Mutex
	pendSnap  *FeedSnapshot
	pendStamp int64
	refs      atomic.Int32
	hub       *Hub
}

// Seq returns the frame's ring sequence number. For a snapshot frame it
// is the "as-of" sequence: the last ring frame folded into the snapshot,
// so resuming with Last-Event-ID = Seq continues exactly after it. A
// resync notice carries the seq of the frame it precedes, so Seq is
// non-decreasing across everything one subscriber is handed.
func (f *Frame) Seq() uint64 { return f.seq }

// Kind returns the frame's accounting kind.
func (f *Frame) Kind() Kind { return f.kind }

// Bytes returns the rendered SSE frame ("id: ...\nevent: ...\ndata:
// ...\n\n"). Valid until Release.
func (f *Frame) Bytes() []byte {
	if f.pending.Load() {
		f.renderPending()
	}
	return f.buf
}

// renderPending encodes a deferred tick frame exactly once. Concurrent
// callers serialize on renderMu; once the flag clears every later Bytes
// call takes the atomic-load fast path.
func (f *Frame) renderPending() {
	f.renderMu.Lock()
	defer f.renderMu.Unlock()
	if !f.pending.Load() {
		return
	}
	if f.pendSnap != nil {
		f.buf = renderHeader(f.buf, f.seq, true, EventSnapshot)
		f.buf = f.pendSnap.appendJSON(f.buf, f.pendStamp)
	} else {
		f.buf = renderHeader(f.buf, f.seq, true, EventDelta)
		f.buf = f.delta.appendJSON(f.buf, f.pendStamp)
	}
	f.buf = append(f.buf, '\n', '\n')
	f.pending.Store(false)
	if s := f.pendSnap; s != nil {
		f.pendSnap = nil
		s.reset()
		f.hub.snapPool.Put(s)
	}
}

// PubAt returns when the frame (for a merged delta: its oldest source)
// was published — the basis for publish→write latency accounting.
func (f *Frame) PubAt() time.Time { return f.pubAt }

// Release drops the caller's reference.
func (f *Frame) Release() {
	if n := f.refs.Add(-1); n == 0 {
		f.hub.recycle(f)
	} else if n < 0 {
		panic("fanout: frame over-released")
	}
}

func (f *Frame) retain() { f.refs.Add(1) }

// Config tunes a Hub. The zero value gives a 256-frame ring, no rate
// limit, eviction after ring+4096 frames of lag, and no wall-clock
// stamps (deterministic output).
type Config struct {
	// Ring is the shared buffer capacity in frames; rounded up to a
	// power of two. Default 256.
	Ring int
	// Rate caps each subscriber's Wait deliveries per second with a
	// token bucket (coalescing absorbs the backlog). <= 0 disables.
	Rate float64
	// Burst is the token bucket capacity. Default max(8, ceil(Rate)).
	Burst int
	// EvictAfter is how many frames beyond the ring capacity a
	// subscriber may lag (i.e. stop polling) before it is evicted.
	// 0 means the default 4096; negative disables eviction.
	EvictAfter int
	// SnapshotEvery is the full-snapshot cadence in ticks: the engine
	// publishes the complete feed state on every Nth tick and deltas on
	// all of them. A fresh subscriber starts from the latest snapshot's
	// as-of point and replays the deltas since, so a higher cadence
	// costs attach latency only, never correctness — and it keeps the
	// per-tick publish cost proportional to what changed, not to the
	// active-incident population. 0 means the default 8; 1 snapshots
	// every tick.
	SnapshotEvery int
	// WallStamp adds a pub_unix_ns wall-clock field to snapshot and
	// delta JSON. Leave off for deterministic replays.
	WallStamp bool
	// Now injects a clock for rate limiting and latency stamps
	// (tests). Default time.Now.
	Now func() time.Time
}

// Hub is the shared fan-out core. One per engine.
type Hub struct {
	cfg  Config
	now  func() time.Time
	mask uint64

	// mu orders ring mutation (write lock: publish, subscribe,
	// unsubscribe, evict, close) against ring reads (read lock: poll).
	// Everything reachable from the ring is immutable while any read
	// lock is held, so 100K pollers share slots without copying.
	mu       sync.RWMutex
	ring     []*Frame
	head     uint64 // next sequence to publish; live frames are [tail, head)
	tail     uint64
	snapshot *Frame // latest snapshot; not part of the ring
	subs     []*Subscriber
	wake     chan struct{} // closed and replaced on every publish
	scanAt   int           // eviction scan cursor (round-robin)
	closed   bool
	cum      [numKinds]uint64 // ring frames ever published, by kind

	framePool sync.Pool
	deltaPool sync.Pool
	snapPool  sync.Pool

	// Lifetime accounting, exported as skynet_fanout_* metrics.
	published   atomic.Uint64 // ring frames published
	ticks       atomic.Uint64 // PublishTickOwned calls
	resyncs     atomic.Uint64
	coalesced   atomic.Uint64 // deltas folded away by merges
	evictions   atomic.Uint64
	dropped     [numKinds]atomic.Uint64
	droppedUnkn atomic.Uint64 // drops whose kind fell off the ring unobserved
	queueHW     atomic.Uint64 // high-water subscriber lag, in frames
	subCount    atomic.Int64
}

// evictScanChunk bounds the slow-consumer scan done per publish, so the
// tick path stays O(1) in the subscriber count.
const evictScanChunk = 64

// NewHub creates a hub with the given configuration.
func NewHub(cfg Config) *Hub {
	if cfg.Ring <= 0 {
		cfg.Ring = 256
	}
	size := 1
	for size < cfg.Ring {
		size <<= 1
	}
	if cfg.EvictAfter == 0 {
		cfg.EvictAfter = 4096
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 8
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 8
		if cfg.Rate > float64(cfg.Burst) {
			cfg.Burst = int(cfg.Rate + 1)
		}
	}
	h := &Hub{
		cfg:  cfg,
		now:  cfg.Now,
		mask: uint64(size - 1),
		ring: make([]*Frame, size),
		wake: make(chan struct{}),
	}
	if h.now == nil {
		h.now = time.Now
	}
	h.framePool.New = func() any { return &Frame{} }
	h.deltaPool.New = func() any { return &FeedDelta{} }
	h.snapPool.New = func() any { return &FeedSnapshot{} }
	return h
}

// newFrame builds a frame with one reference, owned by the caller. The
// byte buffer travels with the pooled Frame across lives (recycle keeps
// it), so the steady-state publish path allocates nothing for buffers —
// and avoids the slice-header boxing a dedicated []byte pool would pay
// on every Put.
func (h *Hub) newFrame(kind Kind) *Frame {
	f := h.framePool.Get().(*Frame)
	buf := f.buf
	*f = Frame{kind: kind, hub: h, buf: buf[:0], pubAt: h.now()}
	f.refs.Store(1)
	return f
}

// recycle returns a fully released frame's resources to the pools.
func (h *Hub) recycle(f *Frame) {
	if f.delta != nil {
		f.delta.reset()
		h.deltaPool.Put(f.delta)
	}
	if f.pending.Load() && f.pendSnap != nil {
		// Released without ever being read: the render never happened.
		f.pendSnap.reset()
		h.snapPool.Put(f.pendSnap)
	}
	buf := f.buf
	*f = Frame{buf: buf[:0]}
	h.framePool.Put(f)
}

// renderHeader appends "id: <seq>\nevent: <name>\ndata: " to f.buf.
func renderHeader(dst []byte, seq uint64, withID bool, event string) []byte {
	if withID {
		dst = append(dst, "id: "...)
		dst = appendUint(dst, seq)
		dst = append(dst, '\n')
	}
	dst = append(dst, "event: "...)
	dst = append(dst, event...)
	dst = append(dst, "\ndata: "...)
	return dst
}

// appendLocked places f in the ring as the next sequence, releasing the
// hub's reference on the frame it overwrites. Caller holds mu.
func (h *Hub) appendLocked(f *Frame) {
	if h.head-h.tail == uint64(len(h.ring)) {
		old := h.ring[h.tail&h.mask]
		h.ring[h.tail&h.mask] = nil
		h.tail++
		old.Release()
	}
	f.seq = h.head
	h.ring[h.head&h.mask] = f
	h.head++
	h.cum[f.kind]++
	h.published.Add(1)
}

// wakeAllLocked arms the next wake channel and returns the old one for
// the caller to close outside useful work. Caller holds mu.
func (h *Hub) wakeAllLocked() chan struct{} {
	old := h.wake
	h.wake = make(chan struct{})
	return old
}

// Publish renders v as one JSON SSE frame of the given event type and
// appends it to the ring — the path for event chatter (journal, flood,
// flight, SLO); the tick's feed documents go through PublishTickOwned.
// Publish never blocks on subscribers.
func (h *Hub) Publish(event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	kind := KindOf(event)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	f := h.newFrame(kind)
	f.buf = renderHeader(f.buf, h.head, true, event)
	f.buf = append(f.buf, data...)
	f.buf = append(f.buf, '\n', '\n')
	h.appendLocked(f)
	h.evictScanLocked()
	wake := h.wakeAllLocked()
	h.mu.Unlock()
	close(wake)
}

// AcquireDelta returns a reset hub-owned delta document: fill it and
// hand it back through PublishTickOwned. The document's slices keep
// their capacity across lives, so a steady-state publisher allocates
// nothing.
func (h *Hub) AcquireDelta() *FeedDelta {
	d := h.deltaPool.Get().(*FeedDelta)
	d.reset()
	return d
}

// AcquireSnapshot is AcquireDelta for full-feed snapshot documents.
func (h *Hub) AcquireSnapshot() *FeedSnapshot {
	s := h.snapPool.Get().(*FeedSnapshot)
	s.reset()
	return s
}

// PublishTickOwned is the once-per-tick publish: one delta frame into
// the ring plus, when snap is non-nil, a replacement of the
// latest-snapshot slot (the engine passes nil on off-cadence ticks — see
// Config.SnapshotEvery). Both documents must come from
// AcquireDelta/AcquireSnapshot; ownership transfers to the hub, and the
// caller must not touch them afterwards — during a flood the delta spans
// most of the active set, so taking the document instead of a copy
// keeps the publish cost flat instead of O(changed incidents). The
// frames store the documents unrendered: the JSON encode is deferred to
// the first reader (Frame.Bytes), so tens of kilobytes of encoding stay
// off the tick path and still happen exactly once, shared by every
// subscriber. Cost is independent of the subscriber count; subscribers
// are notified by a single channel close.
func (h *Hub) PublishTickOwned(snap *FeedSnapshot, delta *FeedDelta) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	var stamp int64
	if h.cfg.WallStamp {
		stamp = h.now().UnixNano()
	}

	df := h.newFrame(KindDelta)
	df.delta = delta
	if df.delta.Coalesced <= 0 {
		df.delta.Coalesced = 1
	}
	if df.delta.FromTick == 0 {
		df.delta.FromTick = df.delta.Tick
	}
	df.pendStamp = stamp
	df.pending.Store(true)
	h.appendLocked(df)

	var old *Frame
	if snap != nil {
		sf := h.newFrame(KindSnapshot)
		sf.seq = h.head - 1 // as-of: resuming after this seq continues the stream
		sf.pendSnap = snap
		sf.pendStamp = stamp
		sf.pending.Store(true)
		old = h.snapshot
		h.snapshot = sf
	}

	h.ticks.Add(1)
	h.evictScanLocked()
	wake := h.wakeAllLocked()
	h.mu.Unlock()
	close(wake)
	if old != nil {
		old.Release()
	}
}

// SnapshotEvery returns the hub's full-snapshot cadence in ticks. The
// engine reads it so off-cadence ticks skip building the snapshot
// document entirely.
func (h *Hub) SnapshotEvery() uint64 { return uint64(h.cfg.SnapshotEvery) }

// evictScanLocked checks a bounded chunk of subscribers for hopeless
// lag and evicts them. Round-robin, so every subscriber is visited at
// least once per len(subs)/evictScanChunk publishes. Caller holds mu.
func (h *Hub) evictScanLocked() {
	n := len(h.subs)
	if n == 0 {
		return
	}
	limit := uint64(len(h.ring)) + uint64(h.cfg.EvictAfter)
	chunk := evictScanChunk
	if chunk > n {
		chunk = n
	}
	var hw uint64
	for i := 0; i < chunk && len(h.subs) > 0; i++ {
		if h.scanAt >= len(h.subs) {
			h.scanAt = 0
		}
		sub := h.subs[h.scanAt]
		lag := h.head - sub.cursor.Load()
		if lag > hw {
			hw = lag
		}
		if h.cfg.EvictAfter >= 0 && lag > limit {
			h.removeLocked(sub)
			sub.evicted.Store(true)
			h.evictions.Add(1)
			continue // the slot now holds the swapped-in subscriber
		}
		h.scanAt++
	}
	for {
		cur := h.queueHW.Load()
		if hw <= cur || h.queueHW.CompareAndSwap(cur, hw) {
			break
		}
	}
}

// removeLocked swap-removes sub from the subscriber list. Caller holds
// mu; sub must be present.
func (h *Hub) removeLocked(sub *Subscriber) {
	last := len(h.subs) - 1
	h.subs[sub.idx] = h.subs[last]
	h.subs[sub.idx].idx = sub.idx
	h.subs[last] = nil
	h.subs = h.subs[:last]
	sub.idx = -1
	h.subCount.Add(-1)
}

// cumAtLocked returns per-kind counts of ring frames with sequence
// < seq, derived from the lifetime counts minus a scan of the live
// frames at or beyond seq. seq must be >= tail. Caller holds mu (read
// or write).
func (h *Hub) cumAtLocked(seq uint64) [numKinds]uint64 {
	counts := h.cum
	for s := seq; s < h.head; s++ {
		counts[h.ring[s&h.mask].kind]--
	}
	return counts
}

// Close shuts the hub down: ring and snapshot references are released,
// subscribers are woken and see ErrClosed, and later publishes are
// dropped. Idempotent. Frames already retained by subscribers stay
// valid until they release them.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	for s := h.tail; s < h.head; s++ {
		f := h.ring[s&h.mask]
		h.ring[s&h.mask] = nil
		f.Release()
	}
	h.tail = h.head
	if h.snapshot != nil {
		old := h.snapshot
		h.snapshot = nil
		old.Release()
	}
	for _, sub := range h.subs {
		sub.idx = -1
	}
	h.subs = nil
	h.subCount.Store(0)
	wake := h.wakeAllLocked()
	h.mu.Unlock()
	close(wake)
}

// Stats is a point-in-time view of the hub's accounting.
type Stats struct {
	Subscribers    int64             `json:"subscribers"`
	RingSize       int               `json:"ring_size"`
	HeadSeq        uint64            `json:"head_seq"`
	Published      uint64            `json:"published_total"`
	Ticks          uint64            `json:"ticks_total"`
	Resyncs        uint64            `json:"resyncs_total"`
	Coalesced      uint64            `json:"deltas_coalesced_total"`
	Evictions      uint64            `json:"evictions_total"`
	Dropped        map[string]uint64 `json:"dropped_by_kind,omitempty"`
	DroppedTotal   uint64            `json:"dropped_total"`
	QueueHighWater uint64            `json:"queue_depth_high_water"`
	SnapshotSeq    uint64            `json:"snapshot_seq"`
	SnapshotBytes  int               `json:"snapshot_bytes"`
}

// StatsSnapshot returns the hub's current accounting.
func (h *Hub) StatsSnapshot() Stats {
	st := Stats{
		Subscribers:    h.subCount.Load(),
		RingSize:       len(h.ring),
		Published:      h.published.Load(),
		Ticks:          h.ticks.Load(),
		Resyncs:        h.resyncs.Load(),
		Coalesced:      h.coalesced.Load(),
		Evictions:      h.evictions.Load(),
		QueueHighWater: h.queueHW.Load(),
		Dropped:        make(map[string]uint64),
	}
	var total uint64
	for k := Kind(0); k < numKinds; k++ {
		if v := h.dropped[k].Load(); v > 0 {
			st.Dropped[kindNames[k]] = v
			total += v
		}
	}
	if v := h.droppedUnkn.Load(); v > 0 {
		st.Dropped["unknown"] = v
		total += v
	}
	st.DroppedTotal = total
	h.mu.RLock()
	st.HeadSeq = h.head
	if h.snapshot != nil {
		st.SnapshotSeq = h.snapshot.seq
		// Bytes forces a deferred render, so the reported size is the
		// real serving payload even when no subscriber has read it yet.
		st.SnapshotBytes = len(h.snapshot.Bytes())
	}
	h.mu.RUnlock()
	return st
}
