// Package status serves SkyNet's operational state over HTTP: health,
// ingest/pipeline counters, and the current incident list as JSON — the
// machine-readable face of the visualization frontend (§7.1) and the
// integration point dashboards poll.
//
// Endpoints:
//
//	GET /healthz            liveness, plain "ok"
//	GET /api/stats          ingest + preprocess counters
//	GET /api/incidents      all incidents, active first, severity-ranked
//	GET /api/incidents/{id} one incident incl. its Figure 6 report and
//	                        LLM-ready context bundle
//	GET /api/incidents/{id}/explain
//	                        provenance document: trigger rule, evidence
//	                        streams, score breakdown, lineage samples
//	                        (WithProvenance)
//	GET /api/journal        incident lifecycle events (WithJournal);
//	                        ?since=SEQ returns only newer events
//	GET /api/buildinfo      binary version, go version, resolved flags
//	                        (WithBuildInfo)
//	GET /api/health         flight-recorder self-SLO verdict; 200 while
//	                        healthy, 503 while degraded (WithFlight)
//	GET /api/trace          recent tick span trees as JSON; ?last=N
//	                        bounds the count (WithTracer)
//	GET /api/events         SSE stream of incident lifecycle transitions,
//	                        flight-recorder anomalies, and flood-episode
//	                        transitions (WithEvents)
//	GET /api/floods         detected flood episodes, summary view
//	                        (WithFlood)
//	GET /api/floods/{id}/report
//	                        one episode's full postmortem report: volume
//	                        by source/type, top locations, incident
//	                        timeline, severity trajectory, perf
//	                        (WithFlood)
//	GET /api/query          tick-indexed telemetry history:
//	                        ?metric=NAME[&from=T][&to=T][&step=N]
//	                        (WithHistory)
//	GET /api/slo            burn-rate rule status and recent burn events
//	                        (WithSLO)
//	GET /api/profile        continuous-profiler window list + per-stage
//	                        CPU table (WithProfiler)
//	GET /metrics            Prometheus text exposition (WithTelemetry)
//	GET /debug/pprof/...    runtime profiles (WithPprof)
package status

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"skynet/internal/core"
	"skynet/internal/evaluator"
	"skynet/internal/fanout"
	"skynet/internal/flight"
	"skynet/internal/flood"
	"skynet/internal/incident"
	"skynet/internal/ingest"
	"skynet/internal/llmctx"
	"skynet/internal/prof"
	"skynet/internal/provenance"
	"skynet/internal/slo"
	"skynet/internal/span"
	"skynet/internal/telemetry"
	"skynet/internal/topology"
	"skynet/internal/tsdb"
	"skynet/internal/viz"
)

// Snapshotter provides serialized access to the engine. The ingest
// dispatch loop owns the engine; the HTTP handlers must go through the
// same lock.
type Snapshotter struct {
	mu       *sync.Mutex
	engine   *core.Engine
	ingest   *ingest.Server       // optional
	topo     *topology.Topology   // optional, enables graph rendering
	reg      *telemetry.Registry  // optional, enables GET /metrics
	journal  *telemetry.Journal   // optional, enables GET /api/journal
	prov     *provenance.Recorder // optional, enables .../explain
	build    *BuildInfo           // optional, enables GET /api/buildinfo
	pprof    bool                 // mounts /debug/pprof
	flight   *flight.Recorder     // optional, enables GET /api/health
	tracer   *span.Tracer         // optional, enables GET /api/trace
	events   *fanout.Hub          // optional, enables GET /api/events + /api/fanout
	flood    *flood.Recorder      // optional, enables GET /api/floods
	history  *tsdb.DB             // optional, enables GET /api/query
	slo      *slo.Engine          // optional, enables GET /api/slo
	profiler *prof.Collector      // optional, enables GET /api/profile
}

// BuildInfo is the /api/buildinfo JSON shape: enough to identify a fleet
// member's binary and runtime configuration at a glance.
type BuildInfo struct {
	Version   string            `json:"version"`
	GoVersion string            `json:"go_version"`
	OS        string            `json:"os"`
	Arch      string            `json:"arch"`
	Workers   int               `json:"workers,omitempty"`
	Flags     map[string]string `json:"flags,omitempty"`
}

// WithTopology enables the per-incident voting-graph endpoint
// (/api/incidents/{id}/graph.svg).
func (s *Snapshotter) WithTopology(topo *topology.Topology) *Snapshotter {
	s.topo = topo
	return s
}

// WithTelemetry mounts GET /metrics serving the registry in Prometheus
// text exposition format. Metric reads are atomic snapshots; the handler
// does not take the engine lock.
func (s *Snapshotter) WithTelemetry(reg *telemetry.Registry) *Snapshotter {
	s.reg = reg
	return s
}

// WithJournal mounts GET /api/journal serving the incident lifecycle
// event log. The journal is internally synchronized; the handler does not
// take the engine lock.
func (s *Snapshotter) WithJournal(j *telemetry.Journal) *Snapshotter {
	s.journal = j
	return s
}

// WithProvenance mounts GET /api/incidents/{id}/explain serving the
// lineage recorder's provenance document. Incident state is read under
// the engine lock, like the other incident endpoints.
func (s *Snapshotter) WithProvenance(rec *provenance.Recorder) *Snapshotter {
	s.prov = rec
	return s
}

// WithBuildInfo mounts GET /api/buildinfo.
func (s *Snapshotter) WithBuildInfo(bi BuildInfo) *Snapshotter {
	s.build = &bi
	return s
}

// WithPprof mounts net/http/pprof under /debug/pprof/ — gated behind a
// flag because profiles expose internals and cost CPU while sampled.
func (s *Snapshotter) WithPprof(enable bool) *Snapshotter {
	s.pprof = enable
	return s
}

// NewSnapshotter wraps an engine (and optionally its ingest server) with
// the mutex that serializes engine access.
func NewSnapshotter(mu *sync.Mutex, eng *core.Engine, srv *ingest.Server) *Snapshotter {
	return &Snapshotter{mu: mu, engine: eng, ingest: srv}
}

// IncidentSummary is the list-view JSON shape.
type IncidentSummary struct {
	ID         int       `json:"id"`
	Root       string    `json:"root"`
	Zoomed     string    `json:"zoomed,omitempty"`
	Severity   float64   `json:"severity"`
	Active     bool      `json:"active"`
	Start      time.Time `json:"start"`
	UpdateTime time.Time `json:"update_time"`
	End        time.Time `json:"end,omitempty"`
	AlertCount int       `json:"alert_count"`
	Locations  int       `json:"locations"`
}

// IncidentDetail extends the summary with the operator report and the
// LLM-ready context (§9).
type IncidentDetail struct {
	IncidentSummary
	Report     string `json:"report"`
	LLMContext string `json:"llm_context"`
}

// StatsView is the /api/stats JSON shape. The ingest fields are copied
// from ingest.Stats — the same struct RegisterMetrics exposes on /metrics
// — so the two surfaces always report identical numbers.
type StatsView struct {
	RawIngested     int `json:"raw_ingested"`
	Structured      int `json:"structured"`
	ActiveIncidents int `json:"active_incidents"`
	ClosedIncidents int `json:"closed_incidents"`

	TCPConnections int `json:"tcp_connections,omitempty"`
	AlertsAccepted int `json:"alerts_accepted,omitempty"`
	AlertsRejected int `json:"alerts_rejected,omitempty"`
	QueueHighWater int `json:"queue_high_water,omitempty"`

	// Per-protocol reject reasons, summing to alerts_rejected.
	RejectedTCPDecode  int `json:"rejected_tcp_decode,omitempty"`
	RejectedTCPInvalid int `json:"rejected_tcp_invalid,omitempty"`
	RejectedUDPParse   int `json:"rejected_udp_parse,omitempty"`
	RejectedUDPInvalid int `json:"rejected_udp_invalid,omitempty"`
	RejectedQueueFull  int `json:"rejected_queue_full,omitempty"`

	// UDPKernelDrops is datagrams lost on a full socket buffer before the
	// server could count them as anything.
	UDPKernelDrops int `json:"udp_kernel_drops,omitempty"`
}

// Summarize builds the list-view JSON shape for one incident — shared
// with the flight recorder's dump snapshots so both surfaces agree.
func Summarize(in *incident.Incident) IncidentSummary { return summarize(in) }

func summarize(in *incident.Incident) IncidentSummary {
	return IncidentSummary{
		ID:         in.ID,
		Root:       in.Root.String(),
		Zoomed:     in.Zoomed.String(),
		Severity:   in.Severity,
		Active:     in.Active(),
		Start:      in.Start,
		UpdateTime: in.UpdateTime,
		End:        in.End,
		AlertCount: in.AlertCount(),
		Locations:  len(in.Locations()),
	}
}

// Handler builds the HTTP handler.
func (s *Snapshotter) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.indexHandler)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/api/stats", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		view := StatsView{
			RawIngested:     s.engine.RawIngested(),
			Structured:      s.engine.PreprocessStats().Out,
			ActiveIncidents: s.engine.ActiveCount(),
			ClosedIncidents: s.engine.ClosedCount(),
		}
		s.mu.Unlock()
		if s.ingest != nil {
			st := s.ingest.Stats()
			view.TCPConnections = st.TCPConnections
			view.AlertsAccepted = st.AlertsAccepted
			view.AlertsRejected = st.AlertsRejected
			view.QueueHighWater = st.QueueHighWater
			view.RejectedTCPDecode = st.TCPDecodeErrors
			view.RejectedTCPInvalid = st.TCPInvalid
			view.RejectedUDPParse = st.UDPParseErrors
			view.RejectedUDPInvalid = st.UDPInvalid
			view.RejectedQueueFull = st.QueueFull
			view.UDPKernelDrops = st.UDPKernelDrops
		}
		writeJSON(w, view)
	})
	if s.reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = s.reg.Expose(w)
		})
	}
	if s.journal != nil {
		mux.HandleFunc("/api/journal", func(w http.ResponseWriter, r *http.Request) {
			after := int64(-1)
			if q := r.URL.Query().Get("since"); q != "" {
				v, err := strconv.ParseInt(q, 10, 64)
				if err != nil {
					http.Error(w, "bad since sequence", http.StatusBadRequest)
					return
				}
				after = v
			}
			writeJSON(w, s.journal.Since(after))
		})
	}
	if s.build != nil {
		mux.HandleFunc("/api/buildinfo", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, s.build)
		})
	}
	if s.flight != nil {
		mux.HandleFunc("/api/health", s.healthHandler)
	}
	if s.tracer != nil {
		mux.HandleFunc("/api/trace", s.traceHandler)
	}
	if s.events != nil {
		mux.HandleFunc("/api/events", s.eventsHandler)
		mux.HandleFunc("/api/fanout", s.fanoutHandler)
	}
	if s.flood != nil {
		mux.HandleFunc("/api/floods", s.floodsHandler)
		mux.HandleFunc("/api/floods/", s.floodReportHandler)
	}
	if s.history != nil {
		mux.HandleFunc("/api/query", s.queryHandler)
	}
	if s.slo != nil {
		mux.HandleFunc("/api/slo", s.sloHandler)
	}
	if s.profiler != nil {
		mux.HandleFunc("/api/profile", s.profileHandler)
	}
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/api/incidents", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		ranked := evaluator.Rank(s.engine.Active())
		closed := s.engine.Closed()
		out := make([]IncidentSummary, 0, len(ranked)+len(closed))
		for _, in := range ranked {
			out = append(out, summarize(in))
		}
		for _, in := range closed {
			out = append(out, summarize(in))
		}
		s.mu.Unlock()
		writeJSON(w, out)
	})
	mux.HandleFunc("/api/incidents/", func(w http.ResponseWriter, r *http.Request) {
		idStr := strings.TrimPrefix(r.URL.Path, "/api/incidents/")
		wantSVG, wantExplain := false, false
		if rest, ok := strings.CutSuffix(idStr, "/graph.svg"); ok {
			idStr, wantSVG = rest, true
		} else if rest, ok := strings.CutSuffix(idStr, "/explain"); ok {
			idStr, wantExplain = rest, true
		}
		id, err := strconv.Atoi(idStr)
		if err != nil {
			http.Error(w, "bad incident id", http.StatusBadRequest)
			return
		}
		if wantSVG {
			s.serveGraphSVG(w, id)
			return
		}
		if wantExplain {
			s.serveExplain(w, id)
			return
		}
		s.mu.Lock()
		var found *incident.Incident
		for _, in := range s.engine.AllIncidents() {
			if in.ID == id {
				found = in
				break
			}
		}
		var detail IncidentDetail
		if found != nil {
			detail = IncidentDetail{
				IncidentSummary: summarize(found),
				Report:          found.Render(),
				LLMContext:      llmctx.Build(llmctx.DefaultConfig(), found).Text,
			}
		}
		s.mu.Unlock()
		if found == nil {
			http.Error(w, "incident not found", http.StatusNotFound)
			return
		}
		writeJSON(w, detail)
	})
	return mux
}

// serveExplain renders the provenance document of one incident: the
// trigger decision, evidence streams, score evidence, and sampled raw
// alert journeys.
func (s *Snapshotter) serveExplain(w http.ResponseWriter, id int) {
	if s.prov == nil {
		http.Error(w, "explain requires provenance recording (-provenance)", http.StatusNotImplemented)
		return
	}
	s.mu.Lock()
	var doc *provenance.Explain
	for _, in := range s.engine.AllIncidents() {
		if in.ID == id {
			doc = s.prov.Explain(in)
			break
		}
	}
	s.mu.Unlock()
	if doc == nil {
		http.Error(w, "incident not found", http.StatusNotFound)
		return
	}
	writeJSON(w, doc)
}

// serveGraphSVG renders the §7.1 voting graph of one incident.
func (s *Snapshotter) serveGraphSVG(w http.ResponseWriter, id int) {
	if s.topo == nil {
		http.Error(w, "graph rendering requires a topology (-scale)", http.StatusNotImplemented)
		return
	}
	s.mu.Lock()
	var svg string
	found := false
	for _, in := range s.engine.AllIncidents() {
		if in.ID == id {
			svg = viz.Build(s.topo, in).SVG()
			found = true
			break
		}
	}
	s.mu.Unlock()
	if !found {
		http.Error(w, "incident not found", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	_, _ = w.Write([]byte(svg))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server wraps http.Server with graceful lifecycle.
type Server struct {
	http *http.Server
	ln   net.Listener
}

// Listen starts serving the snapshotter's handler on addr (":0" for
// ephemeral).
func Listen(addr string, s *Snapshotter, log *slog.Logger) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("status: listen %s: %w", addr, err)
	}
	srv := &Server{
		http: &http.Server{
			Handler:           s.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
		},
		ln: ln,
	}
	go func() {
		if err := srv.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			if log != nil {
				log.Warn("status: serve", "err", err)
			}
		}
	}()
	return srv, nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close shuts the server down gracefully.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	return s.http.Shutdown(ctx)
}
