package status

import (
	"encoding/json"
	"net/http"
	"strconv"

	"skynet/internal/fanout"
	"skynet/internal/flight"
	"skynet/internal/prof"
	"skynet/internal/span"
)

// Event stream types on GET /api/events. Wire-compatible with the
// pre-fanout EventBus stream; frames now additionally carry SSE id
// lines (ring sequence numbers), which old clients ignore and new
// clients echo back as Last-Event-ID to resume.
const (
	// EventTypeIncident carries a telemetry.Event — an incident lifecycle
	// transition (created, updated, zoomed, scored, closed).
	EventTypeIncident = fanout.EventIncident
	// EventTypeAnomaly carries a flight.Event — a flight-recorder trigger
	// firing (slo_burn, ingest_shed, ...).
	EventTypeAnomaly = fanout.EventAnomaly
	// EventTypeSnapshot carries the full incident-feed state as of one
	// tick — what a fresh or resyncing consumer renders from.
	EventTypeSnapshot = fanout.EventSnapshot
	// EventTypeDelta carries one tick's feed changes (possibly merged
	// across several ticks for a lagging consumer).
	EventTypeDelta = fanout.EventDelta
	// EventTypeResync announces a drop-accounted gap: the consumer fell
	// off the ring and continues from the accompanying snapshot.
	EventTypeResync = fanout.EventResync
)

// WithFlight mounts GET /api/health serving the flight recorder's
// self-SLO verdict: HTTP 200 while healthy, 503 while any anomaly
// trigger is firing. The handler reads recorder state only — it never
// takes the engine lock.
func (s *Snapshotter) WithFlight(rec *flight.Recorder) *Snapshotter {
	s.flight = rec
	return s
}

// WithTracer mounts GET /api/trace serving recent tick span trees as
// JSON (?last=N bounds the count; default the full ring). Traces are
// deep copies; the handler does not take the engine lock.
func (s *Snapshotter) WithTracer(tr *span.Tracer) *Snapshotter {
	s.tracer = tr
	return s
}

// WithEvents mounts GET /api/events — the snapshot+delta SSE feed
// served from the fan-out hub's shared ring — and GET /api/fanout, the
// hub's serving statistics. Handlers never take the engine lock; they
// hold references into pre-encoded frames.
func (s *Snapshotter) WithEvents(hub *fanout.Hub) *Snapshotter {
	s.events = hub
	return s
}

// healthView is the /api/health JSON shape: the flight recorder's
// verdict, the HTTP-level status string, and the Go-runtime panel
// (goroutines, heap, last GC pause) so a single probe feeds a dashboard.
type healthView struct {
	Status string `json:"status"` // "ok" | "degraded"
	flight.Health
	Runtime prof.RuntimeStats `json:"runtime"`
}

func (s *Snapshotter) healthHandler(w http.ResponseWriter, r *http.Request) {
	h := s.flight.Health()
	view := healthView{Status: "ok", Health: h, Runtime: prof.ReadRuntimeStats()}
	code := http.StatusOK
	if !h.OK {
		view.Status = "degraded"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(view)
}

// traceView is the /api/trace JSON shape.
type traceView struct {
	// Ticks is the tracer's lifetime finished-trace count.
	Ticks int64 `json:"ticks"`
	// Traces is the requested slice of the ring, oldest first.
	Traces []span.Trace `json:"traces"`
}

func (s *Snapshotter) traceHandler(w http.ResponseWriter, r *http.Request) {
	last := 0 // whole ring
	if q := r.URL.Query().Get("last"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, "bad last count", http.StatusBadRequest)
			return
		}
		last = v
	}
	writeJSON(w, traceView{Ticks: s.tracer.TickCount(), Traces: s.tracer.Last(last)})
}

// lastEventID extracts the resume cursor: the standard SSE
// Last-Event-ID header (set by EventSource on reconnect), with a
// last_event_id query parameter as the curl-friendly fallback.
// Returns -1 (fresh subscriber) when absent or malformed.
func lastEventID(r *http.Request) int64 {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("last_event_id")
	}
	if raw == "" {
		return -1
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || v < 0 {
		return -1
	}
	return v
}

// eventsHandler streams the fan-out hub over SSE until the client
// disconnects, the hub closes, or the subscriber is evicted as a slow
// consumer. Frames are written by reference from the hub's shared
// ring: the handler never copies or re-encodes a payload. A fresh
// client receives the latest snapshot then live deltas; a resuming
// client (Last-Event-ID) continues mid-stream, resynced from the
// snapshot if its cursor has fallen off the ring.
func (s *Snapshotter) eventsHandler(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub, err := s.events.Subscribe(fanout.SubscribeOptions{Cursor: lastEventID(r)})
	if err != nil {
		http.Error(w, "event stream closed", http.StatusServiceUnavailable)
		return
	}
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	ctx := r.Context()
	for {
		frames, err := sub.Wait(ctx)
		if err != nil {
			if err == fanout.ErrEvicted {
				// Best-effort notice; the client reconnects with its
				// Last-Event-ID and is resynced from the snapshot.
				_, _ = w.Write([]byte("event: eviction\ndata: {\"reason\":\"slow_consumer\"}\n\n"))
			}
			return
		}
		werr := error(nil)
		for _, f := range frames {
			if werr == nil {
				_, werr = w.Write(f.Bytes())
			}
			f.Release()
		}
		if werr != nil {
			return
		}
		fl.Flush()
	}
}

// fanoutHandler serves the hub's serving-layer statistics: subscriber
// count, ring position, coalescing/resync/eviction counters, and
// per-kind drop accounting.
func (s *Snapshotter) fanoutHandler(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.events.StatsSnapshot())
}
